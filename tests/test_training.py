"""Loss, clipping, Adam, schedule, and fit-loop behavior."""

import math

import numpy as np
import pytest

from mixcast import mixer, tensor as T, training
from mixcast.mixer import build_ablation_config
from mixcast.slstm import BlockConfig
from mixcast.tensor import ShapeError, Tensor
from mixcast.training import AdamState, TrainConfig, adam_step, clip_global_norm, lr_at_step, mae_loss

import engine_reference as R


class ArrayDataset:
    """In-memory (X, Y) pairs with the WindowedDataset batch interface."""

    def __init__(self, xs, ys):
        self.xs, self.ys = xs, ys

    def __len__(self):
        return self.xs.shape[0]

    def window(self, i):
        return self.xs[i], self.ys[i]

    def batch(self, idx):
        idx = np.asarray(idx, dtype=int)
        return self.xs[idx], self.ys[idx]


def make_affine_task(n, num_variates=3, lookback=12, horizon=4, sigma=0.01,
                     map_seed=5, data_seed=None, a_scale=0.3):
    """Targets are a shared affine map of the per-window normalized input,
    rescaled back to data units, plus Gaussian noise.  The map depends only
    on map_seed, so train and validation sets can share it."""
    map_rng = np.random.default_rng(map_seed)
    a = map_rng.uniform(-a_scale, a_scale, size=(horizon, lookback))
    b = map_rng.uniform(-0.2, 0.2, size=horizon)
    rng = np.random.default_rng(map_seed + 1000 if data_seed is None else data_seed)
    xs = rng.normal(size=(n, num_variates, lookback))
    mu = xs.mean(axis=2, keepdims=True)
    s = np.sqrt(xs.var(axis=2, keepdims=True) + 1e-5)
    xn = (xs - mu) / s
    ys = (xn @ a.T + b) * s + mu + sigma * rng.standard_normal(
        (n, num_variates, horizon))
    return ArrayDataset(xs.astype(np.float32), ys.astype(np.float32))


def small_config(config_id="full", **block_overrides):
    block_opts = dict(d_hidden=8, num_heads=2, conv_width=0, dropout_rate=0.0)
    block_opts.update(block_overrides)
    cfg = mixer.MixerConfig(lookback=12, horizon=4, num_variates=3, embed_dim=8,
                            num_blocks=1, block=BlockConfig(**block_opts))
    if config_id != "full":
        cfg = build_ablation_config(int(config_id), cfg)
    return cfg


# -- loss -----------------------------------------------------------------------

def test_mae_examples():
    p = Tensor(np.ones((2, 2)))
    assert mae_loss(p, np.ones((2, 2))).item() == 0.0
    assert mae_loss(p, np.zeros((2, 2))).item() == 1.0
    assert mae_loss(Tensor([1.0, 3.0]), np.array([2.0, 5.0])).item() == 1.5


def test_mae_shape_mismatch():
    with pytest.raises(ShapeError):
        mae_loss(Tensor(np.zeros((2, 2))), np.zeros((2, 3)))


def test_mae_gradient_zero_at_exact_zero_diff():
    w = R.parameter([1.0, 2.0])
    with T.Tape() as tape:
        loss = mae_loss(R.mul(w, 1.0), np.array([1.0, 5.0]))
        tape.backward(loss)
    assert w.grad[0] == 0.0
    assert w.grad[1] == -0.5


@pytest.mark.parametrize("pred_dtype,target_dtype", [(np.float32, np.float32),
                                                     (np.float64, np.float64),
                                                     (np.float32, np.float64)])
def test_mae_loss_matches_composed_ops_bitwise(pred_dtype, target_dtype):
    rng = np.random.default_rng(24)
    data = rng.normal(size=(21, 96)).astype(pred_dtype)
    target = rng.normal(size=(21, 96)).astype(target_dtype)
    target[0, :5] = data[0, :5]  # exact zeros take subgradient 0

    def loss_and_grad(loss_fn):
        w = R.parameter(data, dtype=pred_dtype)
        with T.Tape() as tape:
            loss = loss_fn(w)
            tape.backward(loss)
        return loss.data, w.grad

    got_loss, got_grad = loss_and_grad(lambda w: mae_loss(w, target))
    want_loss, want_grad = loss_and_grad(
        lambda w: R.reduce_mean(R.absval(R.sub(w, R.lift(target, like=w)))))
    assert got_loss.dtype == want_loss.dtype == np.result_type(pred_dtype, target_dtype)
    assert got_grad.dtype == want_grad.dtype
    assert np.array_equal(got_loss, want_loss)
    assert np.array_equal(got_grad, want_grad)


# -- clipping ---------------------------------------------------------------------

def test_clip_rescales_to_unit_norm():
    grads = [np.array([3.0]), np.array([4.0])]
    norm = clip_global_norm(grads)
    assert norm == 5.0
    assert np.allclose(grads[0], [0.6])
    assert np.allclose(grads[1], [0.8])


def test_clip_leaves_small_gradients_untouched():
    g = np.array([0.3, 0.4])
    before = g.copy()
    clip_global_norm([g])
    assert np.array_equal(g, before)


def test_clip_bound_holds_for_random_gradients():
    rng = np.random.default_rng(0)
    for _ in range(50):
        grads = [rng.normal(size=s) for s in ((3, 4), (7,), (2, 2))]
        clip_global_norm(grads)
        total = math.sqrt(sum(float((g ** 2).sum()) for g in grads))
        assert total <= 1.0 + 1e-9


def test_clip_rejects_nonfinite():
    with pytest.raises(FloatingPointError):
        clip_global_norm([np.array([np.inf])])


def test_fit_clip_norm_is_in_block_norm(tmp_path, monkeypatch):
    ds = make_affine_task(48)
    cfg = small_config(num_heads=4)
    params = mixer.init_mixer_params(cfg, np.random.default_rng(3))
    triples = list(params.named_parameters())
    seen = []
    original = training.clip_global_norm

    def recording(grads):
        before = [g.astype(np.float64) for g in grads]
        norm = original(grads)
        seen.append((before, norm))
        return norm

    monkeypatch.setattr(training, "clip_global_norm", recording)
    tc = TrainConfig(batch_size=16, max_epochs=1, seed=0)
    training.fit(params, cfg, ds, ds, tc, tmp_path)
    assert len(seen) == 3
    for grads, norm in seen:
        total = 0.0
        for (name, t, _), g in zip(triples, grads):
            assert g.shape == t.shape, name
            total += float(np.sum(g ** 2))
        assert norm == pytest.approx(math.sqrt(total), rel=1e-12)


# -- adam ---------------------------------------------------------------------------

def test_adam_first_step_hand_computed():
    theta = R.parameter([0.0], dtype=np.float64)
    state = AdamState.for_params([theta])
    adam_step(state, [theta], [np.array([1.0])], 1e-3)
    expected = -1e-3 * 1.0 / (1.0 + 1e-8)  # bias correction gives m^=v^=1
    assert abs(theta.data[0] - expected) < 1e-15
    assert state.t == 1


def test_adam_zero_gradient_no_move():
    theta = R.parameter([2.5])
    state = AdamState.for_params([theta])
    adam_step(state, [theta], [np.zeros(1)], 1e-3)
    assert theta.data[0] == 2.5


def scalar_adam_reference(g_seq, lr, b1=0.9, b2=0.999, eps=1e-8):
    theta = 0.0
    m = v = 0.0
    for t, g in enumerate(g_seq, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        theta -= lr * m_hat / (math.sqrt(v_hat) + eps)
    return theta


def test_adam_two_steps_match_scalar_reference():
    theta = R.parameter([0.0], dtype=np.float64)
    state = AdamState.for_params([theta])
    for _ in range(2):
        adam_step(state, [theta], [np.array([0.7])], 2e-3)
    assert abs(theta.data[0] - scalar_adam_reference([0.7, 0.7], 2e-3)) < 1e-12


# -- schedule -----------------------------------------------------------------------

@pytest.mark.parametrize("warmup", [5, 10, 15])
def test_schedule_boundary_values(warmup):
    cfg = TrainConfig(lr_initial=3e-3, warmup_steps=warmup)
    total = 100
    assert lr_at_step(warmup, total, cfg) == 3e-3
    assert lr_at_step(total, total, cfg) == 0.0
    mid = warmup + (total - warmup) // 2
    if (total - warmup) % 2 == 0:
        assert abs(lr_at_step(mid, total, cfg) - 1.5e-3) < 1e-18
    assert lr_at_step(0, total, cfg) == 0.0


def test_schedule_monotone_after_warmup():
    cfg = TrainConfig(lr_initial=1e-2, warmup_steps=10)
    values = [lr_at_step(s, 200, cfg) for s in range(201)]
    assert all(a <= b + 1e-15 for a, b in zip(values[:10], values[1:11]))
    assert all(a >= b - 1e-15 for a, b in zip(values[10:-1], values[11:]))


def test_schedule_rejects_warmup_at_or_past_total():
    with pytest.raises(ValueError):
        lr_at_step(0, 10, TrainConfig(warmup_steps=10))


# -- fit ---------------------------------------------------------------------------

def test_fit_single_epoch_bound(tmp_path):
    ds = make_affine_task(64)
    cfg = small_config("6")
    params = mixer.init_mixer_params(cfg, np.random.default_rng(0))
    tc = TrainConfig(batch_size=16, max_epochs=1, patience=0, seed=2021)
    art = training.fit(params, cfg, ds, ds, tc, tmp_path)
    assert art.epochs_trained == 1
    assert len(art.log) == 1
    assert (tmp_path / "best" / "manifest.txt").exists()


def test_fit_early_stops_on_patience(tmp_path):
    ds = make_affine_task(64)
    cfg = small_config("6")
    params = mixer.init_mixer_params(cfg, np.random.default_rng(0))
    tc = TrainConfig(batch_size=16, max_epochs=50, patience=1,
                     lr_initial=0.0 + 1e-12, seed=2021)  # lr ~ 0: no progress
    art = training.fit(params, cfg, ds, ds, tc, tmp_path)
    assert art.epochs_trained < 50


def test_fit_is_deterministic_per_seed(tmp_path):
    ds = make_affine_task(128)
    cfg = small_config(dropout_rate=0.1)
    logs = []
    finals = []
    for run in range(2):
        params = mixer.init_mixer_params(cfg, np.random.default_rng(2021))
        tc = TrainConfig(batch_size=32, max_epochs=3, patience=10, seed=2021)
        art = training.fit(params, cfg, ds, ds, tc, tmp_path / f"r{run}")
        logs.append(art.log)
        finals.append({n: t.data.copy() for n, t, _ in params.named_parameters()})
    for r1, r2 in zip(*logs):
        assert abs(r1["train_mae"] - r2["train_mae"]) < 1e-7
        assert abs(r1["val_mae"] - r2["val_mae"]) < 1e-7
    for name in finals[0]:
        assert np.abs(finals[0][name] - finals[1][name]).max() < 1e-7, name


def test_fit_best_checkpoint_tracks_min_val(tmp_path):
    ds = make_affine_task(96)
    val = make_affine_task(32, data_seed=9)
    cfg = small_config("6")
    params = mixer.init_mixer_params(cfg, np.random.default_rng(1))
    tc = TrainConfig(batch_size=32, max_epochs=5, patience=10, lr_initial=1e-2,
                     seed=3)
    art = training.fit(params, cfg, ds, val, tc, tmp_path)
    assert art.best_val_mae == min(r["val_mae"] for r in art.log)
    best, best_cfg, _ = mixer.load_checkpoint(art.best_checkpoint)
    assert abs(training.evaluate_mae(best, best_cfg, val) - art.best_val_mae) < 1e-6


@pytest.mark.filterwarnings("ignore:overflow")
def test_fit_aborts_on_nonfinite_loss(tmp_path):
    ds = make_affine_task(64)
    cfg = small_config()
    params = mixer.init_mixer_params(cfg, np.random.default_rng(0))
    # 1e20-scale tokens survive the residual path; the 1e20 view weights then
    # push the products past float32 range on the very first batch.
    params.up_w.data[:] = 1e20
    params.view_w.data[:] = 1e20
    tc = TrainConfig(batch_size=16, max_epochs=1, seed=0)
    # With MIXCAST_DEBUG set, the engine stops earlier, at the reconciliation
    # op whose finite inputs overflow.
    match = ("non-finite output from finite inputs" if T.DEBUG_CHECKS
             else "epoch 0, batch 0")
    with pytest.raises(FloatingPointError, match=match):
        training.fit(params, cfg, ds, ds, tc, tmp_path)


def test_convex_descent_config6(tmp_path):
    ds = make_affine_task(160)
    val = make_affine_task(48, data_seed=10)
    cfg = small_config("6")
    params = mixer.init_mixer_params(cfg, np.random.default_rng(4))
    tc = TrainConfig(batch_size=32, max_epochs=50, patience=10**9,
                     lr_initial=1e-3, warmup_steps=0, seed=4)
    art = training.fit(params, cfg, ds, val, tc, tmp_path)
    assert art.log[-1]["val_mae"] < art.log[0]["val_mae"]


def test_synthetic_recoverability_200_steps(tmp_path):
    # 320 windows / batch 32 = 10 steps per epoch; 20 epochs = 200 steps.
    ds = make_affine_task(320)
    val = make_affine_task(64, data_seed=6)
    maes = {}
    for cid in ("6", "1"):
        cfg = small_config(cid)
        params = mixer.init_mixer_params(cfg, np.random.default_rng(1))
        tc = TrainConfig(batch_size=32, lr_initial=3e-2, warmup_steps=5,
                         max_epochs=20, patience=10**9, seed=1)
        art = training.fit(params, cfg, ds, val, tc, tmp_path / cid)
        maes[cid] = art.log[-1]["train_mae"]
    assert maes["6"] < 0.02
    assert maes["1"] <= 1.1 * maes["6"]


def test_fit_trains_time_axis_config(tmp_path):
    ds = make_affine_task(96)
    val = make_affine_task(32, data_seed=12)
    cfg = small_config("2")
    params = mixer.init_mixer_params(cfg, np.random.default_rng(2))
    tc = TrainConfig(batch_size=32, max_epochs=4, patience=10, lr_initial=1e-2,
                     warmup_steps=2, seed=2)
    art = training.fit(params, cfg, ds, val, tc, tmp_path)
    assert art.epochs_trained == 4
    assert art.log[-1]["train_mae"] < art.log[0]["train_mae"]
    assert np.isfinite(art.best_val_mae)


def per_batch_composition(params, cfg, ds, batch_size):
    """The plain eval loop: one forward per slice of batch_size windows, the
    last one short, concatenated; the oracle for predict_dataset."""
    preds, targets = [], []
    for lo in range(0, len(ds), batch_size):
        xs, ys = ds.batch(range(lo, min(lo + batch_size, len(ds))))
        out = mixer.forward_batch(params, cfg, xs, training=False).data
        preds.append(out.reshape(cfg.num_variates, xs.shape[0], cfg.horizon)
                     .transpose(1, 0, 2))
        targets.append(ys)
    return np.concatenate(preds), np.concatenate(targets)


@pytest.fixture(scope="module")
def eval_task():
    cfg = small_config()
    return (mixer.init_mixer_params(cfg, np.random.default_rng(4)), cfg,
            make_affine_task(385, lookback=cfg.lookback, data_seed=8))


@pytest.mark.parametrize("n", [1, 63, 64, 128, 129, 191, 192, 385])
def test_predict_dataset_equals_per_batch_composition(n, eval_task):
    params, cfg, full = eval_task
    ds = ArrayDataset(full.xs[:n], full.ys[:n])
    pred, target = training.predict_dataset(params, cfg, ds, batch_size=128)
    want_pred, want_target = per_batch_composition(params, cfg, ds, 128)
    for got, want in ((pred, want_pred), (target, want_target)):
        assert got.flags.c_contiguous
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 63, 64, 128, 129, 191, 192, 385])
def test_eval_batches_are_never_under_half_a_batch(n, eval_task, monkeypatch):
    params, cfg, full = eval_task
    ds = ArrayDataset(full.xs[:n], full.ys[:n])
    seen = []
    original = mixer.forward_batch

    def spy(params, cfg, xs, *args, **kwargs):
        seen.append(xs)
        return original(params, cfg, xs, *args, **kwargs)

    monkeypatch.setattr(mixer, "forward_batch", spy)
    training.predict_dataset(params, cfg, ds, batch_size=128)
    sizes = [xs.shape[0] for xs in seen]
    # File order: the batches are consecutive runs of the windows.
    assert np.array_equal(np.concatenate(seen), ds.xs)
    if n >= 128:
        assert min(sizes) >= 64, sizes
    assert {385: [128, 128, 129], 191: [191], 192: [128, 64]}.get(n, sizes) == sizes
    # Validation batches the same way.
    seen.clear()
    training.evaluate_mae(params, cfg, ds)
    assert [xs.shape[0] for xs in seen] == sizes


def test_predict_dataset_shapes():
    ds = make_affine_task(10)
    cfg = small_config()
    params = mixer.init_mixer_params(cfg, np.random.default_rng(0))
    pred, target = training.predict_dataset(params, cfg, ds, batch_size=4)
    assert pred.shape == (10, 3, 4)
    assert target.shape == (10, 3, 4)
