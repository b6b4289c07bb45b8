"""Loss, clipping, Adam, schedule, and fit-loop behavior."""

import json
import math
import sys
import threading
import tracemalloc
from dataclasses import fields, is_dataclass, replace
from types import SimpleNamespace

import numpy as np
import pytest

from mixcast import data, mixer, slstm, tensor as T, training
from mixcast.metrics import compute_metrics
from mixcast.mixer import build_ablation_config
from mixcast.slstm import BlockConfig
from mixcast.tensor import ShapeError, Tensor
from mixcast.training import (FlatParams, TrainConfig, adam_step, clip_global_norm,
                              lr_at_step, mae_loss)

import engine_reference as R
import training_reference as ref


class ArrayDataset:
    """In-memory (X, Y) pairs with the WindowedDataset windows and batch
    interface."""

    def __init__(self, xs, ys):
        self.xs, self.ys = xs, ys

    def __len__(self):
        return self.xs.shape[0]

    def window(self, i):
        return self.xs[i], self.ys[i]

    def windows(self):
        xs, ys = self.xs.view(), self.ys.view()
        xs.flags.writeable = ys.flags.writeable = False
        return xs, ys

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

def segments_of(*sizes):
    """(name, slice) pairs of consecutive segments of the given sizes."""
    stops = np.cumsum(sizes).tolist()
    return [(f"g{k}", slice(lo, hi)) for k, (lo, hi) in enumerate(zip([0] + stops, stops))]


def test_clip_rescales_to_unit_norm():
    grad = np.array([3.0, 4.0])
    norm = clip_global_norm(grad, segments_of(1, 1))
    assert norm == 5.0
    assert np.allclose(grad, [0.6, 0.8])


def test_clip_leaves_small_gradients_untouched():
    g = np.array([0.3, 0.4])
    before = g.copy()
    clip_global_norm(g, segments_of(2))
    assert np.array_equal(g, before)


def test_clip_bound_holds_for_random_gradients():
    rng = np.random.default_rng(0)
    for _ in range(50):
        grad = rng.normal(size=12 + 7 + 4)
        clip_global_norm(grad, segments_of(12, 7, 4))
        assert math.sqrt(float((grad ** 2).sum())) <= 1.0 + 1e-9


def test_clip_rejects_nonfinite():
    with pytest.raises(FloatingPointError, match="non-finite gradient in g0 "):
        clip_global_norm(np.array([np.inf]), segments_of(1))


def test_clip_names_the_first_parameter_with_a_nonfinite_gradient():
    cfg = small_config()
    flat = FlatParams(mixer.init_mixer_params(cfg, np.random.default_rng(0)))
    grad = np.zeros_like(flat.data)
    segments = dict(flat.segments)
    grad[segments["blocks.0.cell.w_z"]][3] = np.nan
    grad[segments["view.weight"]][0] = np.inf
    with pytest.raises(FloatingPointError,
                       match=r"^non-finite gradient in blocks\.0\.cell\.w_z before clipping$"):
        clip_global_norm(grad, flat.segments)


def test_fit_clip_norm_is_in_block_norm(tmp_path, monkeypatch):
    ds = make_affine_task(48)
    cfg = small_config(num_heads=4)
    params = mixer.init_mixer_params(cfg, np.random.default_rng(3))
    triples = list(params.named_parameters())
    seen = []
    original = training.clip_global_norm

    def recording(grad, segments):
        before = [(name, grad[seg].astype(np.float64)) for name, seg in segments]
        norm = original(grad, segments)
        seen.append((before, norm))
        return norm

    monkeypatch.setattr(training, "clip_global_norm", recording)
    tc = TrainConfig(batch_size=16, max_epochs=1, seed=0)
    training.fit(params, cfg, ds, ds, tc, tmp_path)
    assert len(seen) == 3
    for grads, norm in seen:
        total = 0.0
        assert [name for name, _ in grads] == [name for name, _, _ in triples]
        for (name, t, _), (_, g) in zip(triples, grads):
            assert g.reshape(t.shape).shape == t.shape, name
            total += float(np.sum(g ** 2))
        assert norm == pytest.approx(math.sqrt(total), rel=1e-12)


# -- adam ---------------------------------------------------------------------------

def scalar_flat(theta, dtype=np.float64):
    """A one-entry stand-in for FlatParams: what adam_step reads, with a
    zero gradient to fill and zero moments."""
    data = np.array([theta], dtype=dtype)
    return SimpleNamespace(data=data, grad=np.zeros_like(data), m=np.zeros_like(data),
                           v=np.zeros_like(data), t=0)


def test_adam_first_step_hand_computed():
    flat = scalar_flat(0.0)
    flat.grad[0] = 1.0
    adam_step(flat, 1e-3)
    expected = -1e-3 * 1.0 / (1.0 + 1e-8)  # bias correction gives m^=v^=1
    assert abs(flat.data[0] - expected) < 1e-15
    assert flat.t == 1


def test_adam_zero_gradient_no_move():
    flat = scalar_flat(2.5, np.float32)
    adam_step(flat, 1e-3)
    assert flat.data[0] == 2.5


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
    flat = scalar_flat(0.0)
    flat.grad[0] = 0.7
    for _ in range(2):
        adam_step(flat, 2e-3)
    assert abs(flat.data[0] - scalar_adam_reference([0.7, 0.7], 2e-3)) < 1e-12


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_flat_params_start_with_zero_moments_and_no_step(dtype):
    with T.precision(dtype):
        params = mixer.init_mixer_params(small_config(), np.random.default_rng(0))
    flat = FlatParams(params)
    for moment in (flat.m, flat.v):
        assert moment.dtype == dtype and moment.shape == flat.data.shape
        assert not moment.any()
    assert flat.t == 0


# The benchmark's model at the ETTh1, Weather and Electricity widths.
LAYOUTS = {
    "etth1": dict(num_variates=7, num_blocks=1, conv_width=0),
    "weather": dict(num_variates=21, num_blocks=2, conv_width=4),
    "electricity": dict(num_variates=321, num_blocks=1, conv_width=0),
}


def layout_params(layout, dtype):
    opts = LAYOUTS[layout]
    cfg = mixer.MixerConfig(lookback=96, horizon=96, num_variates=opts["num_variates"],
                            embed_dim=64, num_blocks=opts["num_blocks"],
                            block=BlockConfig(64, 4, opts["conv_width"], 0.1))
    with T.precision(dtype):
        return mixer.init_mixer_params(cfg, np.random.default_rng(7))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_flat_step_matches_per_tensor_reference_bitwise(layout, dtype):
    """24 clip-and-Adam steps on random gradients through the flat buffer
    and through the per-tensor oracle: norms, moments, step count and
    parameters agree bit for bit, over clipped and unclipped steps, with one
    parameter that never has a gradient."""
    params = layout_params(layout, dtype)
    names = [name for name, _, _ in params.named_parameters()]
    tensors = [t for _, t, _ in params.named_parameters()]
    shadow = [Tensor(t.data.copy(), dtype=dtype) for t in tensors]
    flat = FlatParams(params)
    ref_state = ref.AdamState.for_params(shadow)
    assert flat.data.dtype == dtype
    rng = np.random.default_rng(13)
    idle = names.index("up.bias")
    clipped = 0
    for step in range(24):
        # Global norms from about 0.2 to 5, so both sides of CLIP_NORM occur.
        scale = 10.0 ** rng.uniform(-0.7, 0.7) / math.sqrt(flat.data.size)
        grads = [(rng.normal(size=t.shape) * scale).astype(dtype) for t in shadow]
        grads[idle][...] = 0.0
        # The step's zero fill, then each leaf's gradient written into its
        # view; the idle leaf keeps the fill.
        flat.grad.fill(0)
        for k, t in enumerate(tensors):
            if k != idle:
                t.grad[...] = grads[k]
        lr = 1e-3 * (step + 1) / 24
        ref_norm = ref.clip_global_norm(grads)
        ref.adam_step(ref_state, shadow, grads, lr)
        norm = clip_global_norm(flat.grad, flat.segments)
        adam_step(flat, lr)
        clipped += norm > training.CLIP_NORM
        assert norm == ref_norm, step
        assert flat.t == ref_state.t == step + 1
        for k, (name, seg) in enumerate(flat.segments):
            for got, want in ((tensors[k].data, shadow[k].data),
                              (flat.m[seg], ref_state.m[k]),
                              (flat.v[seg], ref_state.v[k])):
                assert got.dtype == want.dtype, name
                assert got.tobytes() == want.tobytes(), (step, name)
    assert 0 < clipped < 24
    assert not flat.m[dict(flat.segments)["up.bias"]].any()


def plain(obj):
    """obj with every Tensor in it, however deep, rebuilt as Tensor(data)."""
    if isinstance(obj, Tensor):
        return Tensor(obj.data)
    if isinstance(obj, list):
        return [plain(o) for o in obj]
    if is_dataclass(obj):
        return replace(obj, **{f.name: plain(getattr(obj, f.name)) for f in fields(obj)})
    return obj


def test_a_plain_tensor_gets_its_gradient_under_a_tape():
    # No flag opts a tensor in: a model built of plain Tensor(data) trains,
    # and one taped step writes every parameter's segment of the flat buffer.
    cfg = small_config(conv_width=2, dropout_rate=0.1)
    params = plain(mixer.init_mixer_params(cfg, np.random.default_rng(0)))
    flat = FlatParams(params)
    xs, ys = make_affine_task(8).batch(np.arange(8))
    with T.Tape() as tape:
        pred = mixer.forward_batch(params, cfg, xs, True, np.random.default_rng(1))
        tape.backward(mae_loss(pred, ys))
    assert [name for name, seg in flat.segments if not flat.grad[seg].any()] == []


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


@pytest.mark.parametrize("warmup", [10, 11, 50])
def test_schedule_cuts_a_warmup_not_shorter_than_the_run(warmup):
    # A tiny run still ramps to the peak rate: its warmup is cut to one step
    # short of the run.
    total = 10
    cut = [lr_at_step(s, total, TrainConfig(warmup_steps=9)) for s in range(total + 1)]
    assert [lr_at_step(s, total, TrainConfig(warmup_steps=warmup))
            for s in range(total + 1)] == cut
    assert max(cut) == TrainConfig().lr_initial


@pytest.mark.parametrize("field, value", [("max_epochs", 0), ("max_epochs", -1),
                                          ("warmup_steps", -1), ("warmup_steps", -5),
                                          ("patience", -1)])
def test_train_config_rejects_values_below_their_floor(field, value):
    # Zero epochs wrote no checkpoint, a negative warmup shifted the cosine
    # schedule and a negative patience acted as 0; each is rejected naming
    # the field and the value.
    with pytest.raises(ValueError, match=f"^{field} must be >= [01], got {value}$"):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("lr", [0.0, -1e-3, math.nan, math.inf, -math.inf])
def test_train_config_rejects_a_learning_rate_that_is_not_positive_and_finite(lr):
    # nan and inf passed the old check `lr_initial <= 0`, and the run then
    # diverged on its first steps.
    with pytest.raises(ValueError, match="^lr_initial must be positive and finite, got "):
        TrainConfig(lr_initial=lr)


def test_fit_names_the_step_a_floating_point_error_stops(tmp_path):
    # A forget bias of 110 underflows the first token's input gate in
    # float32, which the recurrence reports; fit adds where it happened.
    ds = make_affine_task(48)
    cfg = small_config()
    params = mixer.init_mixer_params(cfg, np.random.default_rng(3))
    params.blocks[0].cell.b_f.data[:] = 110.0
    tc = TrainConfig(batch_size=16, max_epochs=1, seed=0)
    with pytest.raises(FloatingPointError) as caught:
        training.fit(params, cfg, ds, ds, tc, tmp_path)
    assert str(caught.value) == (f"{caught.value.__cause__} at epoch 0, batch 0, step 0, "
                                 "learning rate 0")
    assert str(caught.value.__cause__).startswith("normalizer underflow at the first token")


def test_train_config_floors_are_accepted():
    cfg = TrainConfig(max_epochs=1, warmup_steps=0, patience=0)
    assert lr_at_step(0, 10, cfg) == cfg.lr_initial


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
    # At lr ~ 0 the val MAE never moves, so only the first epoch improves (on
    # +inf), and the run stops once patience + 1 epochs after it bring none.
    ds = make_affine_task(64)
    cfg = small_config("6")
    for patience in range(4):
        params = mixer.init_mixer_params(cfg, np.random.default_rng(0))
        tc = TrainConfig(batch_size=16, max_epochs=50, patience=patience,
                         lr_initial=0.0 + 1e-12, seed=2021)  # lr ~ 0: no progress
        art = training.fit(params, cfg, ds, ds, tc, tmp_path / str(patience))
        assert art.epochs_trained < 50
        assert art.epochs_trained == len(art.log)
        assert len({row["val_mae"] for row in art.log}) == 1
        assert art.epochs_trained == patience + 2, f"patience {patience}"


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
    with pytest.raises(FloatingPointError, match="epoch 0, batch 0"):
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


def assert_views_of_one_buffer(params):
    """Every parameter is a view of one contiguous buffer, laid end to end in
    named_parameters order."""
    tensors = [t for _, t, _ in params.named_parameters()]
    buffer = tensors[0].data.base
    assert buffer is not None and buffer.ndim == 1 and buffer.flags.c_contiguous
    offset = 0
    for name, t, _ in params.named_parameters():
        assert t.data.base is buffer, name
        assert t.data.__array_interface__["data"][0] == (
            buffer.__array_interface__["data"][0] + offset * buffer.itemsize), name
        offset += t.size
    assert offset == buffer.size


def assert_checkpoint_roundtrip(params, directory):
    mixer.save_checkpoint(directory, params)
    loaded, _, _ = mixer.load_checkpoint(directory)
    for (name, a, _), (_, b, _) in zip(params.named_parameters(), loaded.named_parameters()):
        assert (a.data.dtype, a.shape) == (b.data.dtype, b.shape), name
        assert a.data.tobytes() == b.data.tobytes(), name


def test_consecutive_fits_continue_from_the_last_weights(tmp_path):
    """Two fit calls on one MixerParams (one epoch each, as the benchmark
    runs them) equal a fit, a checkpoint round trip and a fit on the
    freshly loaded parameters; after each call the parameters are views of
    one buffer and round-trip through a checkpoint bit-exactly."""
    ds = make_affine_task(64)
    val = make_affine_task(32, data_seed=9)
    cfg = small_config(dropout_rate=0.1, conv_width=4)

    def epoch(params, seed, name):
        tc = TrainConfig(batch_size=16, max_epochs=1, seed=seed, lr_initial=1e-2)
        return training.fit(params, cfg, ds, val, tc, tmp_path / name).log

    params = mixer.init_mixer_params(cfg, np.random.default_rng(8))
    logs = []
    for seed in (0, 1):
        handed_out = [(t.data, t.data.tobytes()) for _, t, _ in params.named_parameters()]
        logs += epoch(params, seed, f"a{seed}")
        assert_views_of_one_buffer(params)
        assert_checkpoint_roundtrip(params, tmp_path / f"roundtrip{seed}")
        # The call trains its own buffer: arrays read before it keep their values.
        assert all(array.tobytes() == raw for array, raw in handed_out)

    other = mixer.init_mixer_params(cfg, np.random.default_rng(8))
    other_logs = epoch(other, 0, "b0")
    mixer.save_checkpoint(tmp_path / "between", other)
    loaded, _, _ = mixer.load_checkpoint(tmp_path / "between")
    other_logs += epoch(loaded, 1, "b1")
    assert_views_of_one_buffer(loaded)

    assert logs == other_logs
    for (name, a, _), (_, b, _) in zip(params.named_parameters(), loaded.named_parameters()):
        assert a.data.tobytes() == b.data.tobytes(), name


def test_fit_rejects_parameters_of_mixed_dtypes(tmp_path):
    ds = make_affine_task(32)
    cfg = small_config()
    params = mixer.init_mixer_params(cfg, np.random.default_rng(0))
    params.up_b.data = params.up_b.data.astype(np.float64)
    params.view_b.data = params.view_b.data.astype(np.float64)
    before = {name: t.data for name, t, _ in params.named_parameters()}
    tc = TrainConfig(batch_size=16, max_epochs=1, seed=0)
    with pytest.raises(ValueError, match="parameter up.bias is float64, "
                                         "the parameters before it float32"):
        training.fit(params, cfg, ds, ds, tc, tmp_path)
    assert all(t.data is before[name] for name, t, _ in params.named_parameters())


@pytest.mark.parametrize("empty", ["train", "val"])
def test_fit_rejects_an_empty_dataset(tmp_path, empty):
    ds = make_affine_task(16)
    none = ArrayDataset(ds.xs[:0], ds.ys[:0])
    cfg = small_config()
    params = mixer.init_mixer_params(cfg, np.random.default_rng(0))
    with pytest.raises(ValueError, match="^train and validation datasets must be non-empty$"):
        training.fit(params, cfg, none if empty == "train" else ds,
                     none if empty == "val" else ds, TrainConfig(), tmp_path)


@pytest.mark.parametrize("fault,error,match", [
    ("dtype", ValueError, "^gradient is float64, the tensor's gradient float32$"),
    ("shape", ShapeError, r"^gradient has shape \(2, 1, 4\), the tensor's gradient \(1, 4\)$"),
])
def test_fit_rejects_a_gradient_unlike_its_parameter(tmp_path, monkeypatch, fault, error, match):
    ds = make_affine_task(32)
    cfg = small_config()
    params = mixer.init_mixer_params(cfg, np.random.default_rng(0))
    original = mixer.forward_batch

    def extra_gradient(params, cfg, xs, **kwargs):
        # An identity op that also hands view.bias a zero gradient of the
        # wrong dtype or shape; its backward runs first, against the
        # parameter's view of the flat gradient buffer.
        out = original(params, cfg, xs, **kwargs)
        leaf = params.view_b
        bad = (np.zeros(leaf.shape, np.float64) if fault == "dtype"
               else np.zeros((2,) + leaf.shape, leaf.data.dtype))
        return T.custom_op(out.data, [out, leaf], lambda g: [g, bad])

    monkeypatch.setattr(mixer, "forward_batch", extra_gradient)
    tc = TrainConfig(batch_size=16, max_epochs=1, seed=0)
    with pytest.raises(error, match=match):
        training.fit(params, cfg, ds, ds, tc, tmp_path)


def test_fit_leaves_every_gradient_a_view_of_the_flat_buffer(tmp_path, monkeypatch):
    """The engine adds each parameter's gradient into its segment of the
    flat gradient buffer: after a step every .grad is still that view, and
    the buffer fit clips and steps with holds the step's gradients."""
    ds = make_affine_task(16)
    cfg = small_config(conv_width=4)
    params = mixer.init_mixer_params(cfg, np.random.default_rng(0))
    seen = []
    original = training.adam_step

    def spy(flat, lr):
        seen.append(flat.grad)
        original(flat, lr)

    monkeypatch.setattr(training, "adam_step", spy)
    tc = TrainConfig(batch_size=16, max_epochs=1, seed=0)
    training.fit(params, cfg, ds, ds, tc, tmp_path)
    (grad,) = seen
    offset = 0
    for name, t, _ in params.named_parameters():
        assert isinstance(t.grad, np.ndarray) and t.grad.shape == t.shape, name
        assert t.grad.base is grad, name
        assert t.grad.__array_interface__["data"][0] == (
            grad.__array_interface__["data"][0] + offset * grad.itemsize), name
        offset += t.size
    assert offset == grad.size and grad.any()


class Interrupt(BaseException):
    """Stands in for a KeyboardInterrupt or a SystemExit mid-step."""


def test_an_interrupted_fit_leaves_its_completed_epochs(tmp_path, monkeypatch):
    """A run stopped midway through its third epoch of five keeps a loss log
    of exactly its two completed epochs, each a whole JSON line and the same
    as an uninterrupted run's, and a best checkpoint that loads, scores the
    log's smallest val_mae and has no staging sibling left beside it."""
    ds = make_affine_task(64)
    val = make_affine_task(32, data_seed=9)
    cfg = small_config(dropout_rate=0.1, conv_width=4)
    tc = TrainConfig(batch_size=16, max_epochs=5, patience=10, lr_initial=1e-2, seed=4)

    def run(out_dir):
        params = mixer.init_mixer_params(cfg, np.random.default_rng(6))
        training.fit(params, cfg, ds, val, tc, out_dir, log_path=out_dir / "loss_log.jsonl")

    run(tmp_path / "whole")
    whole = (tmp_path / "whole" / "loss_log.jsonl").read_text().splitlines(keepends=True)
    assert len(whole) == 5

    original = training.adam_step
    steps_per_epoch, stop_at = 4, 2 * 4 + 2

    def interrupted(flat, lr):
        if flat.t == stop_at:
            raise Interrupt
        original(flat, lr)

    monkeypatch.setattr(training, "adam_step", interrupted)
    out = tmp_path / "cut"
    with pytest.raises(Interrupt):
        run(out)
    text = (out / "loss_log.jsonl").read_text()
    assert text.endswith("\n")
    lines = text.splitlines(keepends=True)
    assert lines == whole[:stop_at // steps_per_epoch]
    rows = [json.loads(line) for line in lines]
    assert [row["epoch"] for row in rows] == [0, 1]

    best, best_cfg, _ = mixer.load_checkpoint(out / "best")
    assert sorted(p.name for p in out.iterdir()) == ["best", "loss_log.jsonl"]
    assert training.evaluate_mae(best, best_cfg, val) == min(row["val_mae"] for row in rows)


def fit_files(out_dir, params, cfg, ds, val, seed=3):
    """Train two epochs into out_dir; the bytes of loss_log.jsonl and of
    every checkpoint file, by path."""
    tc = TrainConfig(batch_size=16, max_epochs=2, seed=seed, lr_initial=1e-2)
    training.fit(params, cfg, ds, val, tc, out_dir, log_path=out_dir / "loss_log.jsonl")
    return {p.relative_to(out_dir).as_posix(): p.read_bytes()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def two_block_config():
    return replace(small_config(dropout_rate=0.1, conv_width=4), num_blocks=2)


def test_fit_reads_no_stale_byte_of_its_arena(tmp_path, monkeypatch):
    """Every carve from every arena of a run is NaN throughout before its
    arrays are handed out, so a block that read a byte an earlier step
    wrote, or none, would move a loss or a weight.  One NaN fill per
    allocation would not show it: an epoch's steps reuse one buffer."""
    cfg = two_block_config()
    ds, val = make_affine_task(72), make_affine_task(24, data_seed=9)

    def run(name):
        params = mixer.init_mixer_params(cfg, np.random.default_rng(8))
        return fit_files(tmp_path / name, params, cfg, ds, val)

    want = run("plain")
    carves = []

    class Refilled(slstm.Scratch):
        def carve(self, dtype, shapes):
            arrays = super().carve(dtype, shapes)
            self.buffer.fill(0xFF)  # every byte 0xFF is a NaN
            carves.append(self)
            return arrays

    monkeypatch.setattr(slstm, "Scratch", Refilled)
    assert run("poisoned") == want
    # Per epoch, five steps carve from the epoch's arena, and the one
    # validation batch from the pass's own.
    arenas = {id(arena): arena for arena in carves}
    assert sorted(carves.count(arena) for arena in arenas.values()) == [1, 1, 5, 5]


def test_concurrent_fits_equal_the_serial_runs(tmp_path):
    """Three fits at once, each on its own parameters and datasets, write
    the loss logs and checkpoints of their serial runs: each fit owns its
    arenas, which a Scratch does not share across threads."""
    cfg = two_block_config()
    tasks = [(make_affine_task(72, data_seed=k), make_affine_task(24, data_seed=10 + k))
             for k in range(3)]

    def run(k, name):
        params = mixer.init_mixer_params(cfg, np.random.default_rng(k))
        return fit_files(tmp_path / name, params, cfg, *tasks[k], seed=k)

    serial = [run(k, f"serial{k}") for k in range(3)]
    results, errors = {}, []

    def worker(k):
        try:
            results[k] = run(k, f"thread{k}")
        except BaseException as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert [results[k] for k in range(3)] == serial


def per_batch_composition(params, cfg, ds, batch_size):
    """The plain eval loop: one forward per slice of batch_size windows, the
    last one short, concatenated; the oracle for predict_dataset."""
    preds, targets = [], []
    for lo in range(0, len(ds), batch_size):
        xs, ys = ds.batch(range(lo, min(lo + batch_size, len(ds))))
        preds.append(mixer.forward_batch(params, cfg, xs, training=False).data)
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
    assert pred.flags.c_contiguous
    # The targets are the dataset's read-only window view, not a copy.
    assert np.shares_memory(target, ds.ys) and not target.flags.writeable
    for got, want in ((pred, want_pred), (target, want_target)):
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


@pytest.mark.parametrize("batch_size", [0, -4])
def test_predict_dataset_rejects_batch_sizes_below_one(batch_size, eval_task):
    params, cfg, full = eval_task
    with pytest.raises(ValueError, match="batch_size must be >= 1"):
        training.predict_dataset(params, cfg, full, batch_size=batch_size)


def test_predict_dataset_rejects_an_empty_dataset(eval_task):
    params, cfg, _ = eval_task
    empty = ArrayDataset(np.zeros((0, 3, 12), np.float32), np.zeros((0, 3, 4), np.float32))
    with pytest.raises(ValueError, match="^cannot predict an empty dataset$"):
        training.predict_dataset(params, cfg, empty)


def windowed_task(windows, variates=3, lookback=12, horizon=4, seed=6):
    """A WindowedDataset of the given number of windows over a synthetic
    series, and a small model for it."""
    from conftest import synthetic_series
    cfg = mixer.MixerConfig(lookback=lookback, horizon=horizon, num_variates=variates,
                            embed_dim=8, num_blocks=1,
                            block=BlockConfig(d_hidden=8, num_heads=2, conv_width=0,
                                              dropout_rate=0.0))
    values = synthetic_series(windows + lookback + horizon - 1, variates, seed=seed)
    ds = data.window_iter(values, (0, values.shape[0]), lookback, horizon)
    return mixer.init_mixer_params(cfg, np.random.default_rng(seed)), cfg, ds


@pytest.mark.parametrize("n", [1, 191, 385])
def test_predict_dataset_reads_the_window_cache_in_place(n, monkeypatch):
    params, cfg, ds = windowed_task(n)
    # batch() stays the oracle: the per-batch composition of gathered copies.
    want_pred, want_target = per_batch_composition(params, cfg, ds, 128)
    before = ds.values.copy()

    def no_gather(self, indices):
        raise AssertionError("evaluation gathered a batch")

    monkeypatch.setattr(data.WindowedDataset, "batch", no_gather)
    pred, target = training.predict_dataset(params, cfg, ds, batch_size=128)
    assert pred.flags.c_contiguous and pred.tobytes() == want_pred.tobytes()
    assert (target.dtype, target.shape) == (want_target.dtype, want_target.shape)
    assert target.tobytes() == want_target.tobytes()
    assert np.shares_memory(target, ds.windows()[1])
    assert not target.flags.writeable
    with pytest.raises(ValueError):
        target[0, 0, 0] = 1.0
    assert np.array_equal(ds.values, before)
    assert np.array_equal(ds.windows()[1], want_target)


def test_eval_memory_grows_by_the_forecasts_only():
    # From N to 2N windows the peak of a scored pass grows by the second N
    # forecasts only: no [N, V, H] target copy grows with them.
    def peak(n):
        params, cfg, ds = windowed_task(n, variates=48, horizon=16)
        ds.windows()  # the cache is the dataset's, made once
        tracemalloc.start()
        try:
            pred, target = training.predict_dataset(params, cfg, ds, batch_size=128)
            compute_metrics(pred, target)
            return tracemalloc.get_traced_memory()[1], pred.nbytes
        finally:
            tracemalloc.stop()

    (small, _), (large, forecast_bytes) = peak(256), peak(512)
    extra = forecast_bytes // 2
    assert large - small < 1.1 * extra, (small, large, extra)
