"""Pipeline stage contracts, ablation wiring, and checkpoint io."""

import contextlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mixcast import gradcheck, mixer, slstm, tensor as T, training
from mixcast.mixer import (
    AXIS_NONE,
    AXIS_TIME,
    AXIS_VARIATES,
    ConfigError,
    MixerConfig,
    RevInParams,
    build_ablation_config,
    init_mixer_params,
    pack_views,
    reconcile_views,
    revin_denormalize,
    revin_normalize,
)
from mixcast.slstm import BlockConfig
from mixcast.tensor import ShapeError, Tensor
from mixcast.training import mae_loss

import engine_reference as R
from conftest import run_stack
from test_training import ArrayDataset


def make_cfg(**overrides) -> MixerConfig:
    base = dict(lookback=8, horizon=4, num_variates=3, embed_dim=8,
                num_blocks=1, block=BlockConfig(d_hidden=8, num_heads=2))
    base.update(overrides)
    return MixerConfig(**base)


def fresh_revin(v=3, dtype=np.float64) -> RevInParams:
    return RevInParams(
        gamma=Tensor(np.ones((v, 1)), dtype=dtype),
        beta=Tensor(np.zeros((v, 1)), dtype=dtype),
    )


# -- reversible instance normalization ---------------------------------------

def test_revin_constant_series_is_finite_and_near_zero():
    p = fresh_revin(v=1)
    out, _ = revin_normalize(p, np.full((1, 3), 5.0))
    assert np.isfinite(out.data).all()
    assert np.abs(out.data).max() <= 1e-2


def test_revin_hand_computed_values():
    p = fresh_revin(v=1)
    out, _ = revin_normalize(p, np.array([[1.0, 2.0, 3.0]]))
    # Population variance 2/3, with the fixed epsilon inside the root.
    edge = 1.0 / np.sqrt(2.0 / 3.0 + mixer.REVIN_EPS)
    expected = np.array([[-edge, 0.0, edge]])
    assert np.abs(out.data - expected).max() < 1e-6


def test_revin_gamma_zero_yields_beta():
    p = fresh_revin(v=1)
    p.gamma.data[:] = 0.0
    p.beta.data[:] = 7.0
    out, _ = revin_normalize(p, np.array([[3.0, -1.0, 12.0]]))
    assert np.array_equal(out.data, np.full((1, 3), 7.0))


def test_revin_roundtrip_identity():
    rng = np.random.default_rng(0)
    p = fresh_revin(v=4)
    p.gamma.data[:] = rng.uniform(0.5, 2.0, size=(4, 1))
    p.beta.data[:] = rng.uniform(-1.0, 1.0, size=(4, 1))
    x = rng.normal(size=(4, 16))
    norm, stats = revin_normalize(p, x)
    back = revin_denormalize(p, stats, norm)
    assert back.shape == (1, 4, 16)
    assert np.abs(back.data[0] - x).max() < 1e-6


def test_revin_denorm_special_cases():
    p = fresh_revin(v=2)
    stats = (np.zeros((2, 1)), np.ones((2, 1)))
    y_norm = np.random.default_rng(1).normal(size=(2, 5))
    out = revin_denormalize(p, stats, R.lift(y_norm))
    assert out.shape == (1, 2, 5)
    assert np.abs(out.data[0] - y_norm).max() < 1e-12

    stats2 = (np.full((2, 1), 3.5), np.full((2, 1), 2.0))
    p.beta.data[:] = 0.25
    out2 = revin_denormalize(p, stats2, R.lift(np.full((2, 5), 0.25)))
    assert np.abs(out2.data - 3.5).max() < 1e-12


def test_revin_denorm_rejects_tiny_gamma():
    p = fresh_revin(v=1)
    p.gamma.data[:] = 1e-13
    stats = (np.zeros((1, 1)), np.ones((1, 1)))
    with pytest.raises(ValueError, match="gamma"):
        revin_denormalize(p, stats, R.lift(np.zeros((1, 2))))


# -- shared linear forecaster -------------------------------------------------

def test_nlinear_identity_when_square_identity_weight():
    w = Tensor(np.eye(5), dtype=np.float64)
    b = Tensor(np.zeros((1, 5)), dtype=np.float64)
    x = np.random.default_rng(2).normal(size=(3, 5))
    out = mixer.nlinear_forecast(w, b, R.lift(x))
    assert np.abs(out.data - x).max() < 1e-12


def test_nlinear_zero_weight_is_persistence():
    w = Tensor(np.zeros((4, 6)), dtype=np.float64)
    b = Tensor(np.zeros((1, 4)), dtype=np.float64)
    x = np.random.default_rng(3).normal(size=(2, 6))
    out = mixer.nlinear_forecast(w, b, R.lift(x))
    assert np.abs(out.data - x[:, -1:]).max() < 1e-12


def test_nlinear_shift_equivariance():
    rng = np.random.default_rng(4)
    w = Tensor(rng.normal(size=(4, 6)), dtype=np.float64)
    b = Tensor(rng.normal(size=(1, 4)), dtype=np.float64)
    x = rng.normal(size=(2, 6))
    k = 3.7
    base = mixer.nlinear_forecast(w, b, R.lift(x)).data
    shifted = mixer.nlinear_forecast(w, b, R.lift(x + k)).data
    assert np.abs(shifted - (base + k)).max() < 1e-10


def test_nlinear_shape_error():
    w = Tensor(np.zeros((4, 6)))
    b = Tensor(np.zeros((1, 4)))
    with pytest.raises(ShapeError):
        mixer.nlinear_forecast(w, b, Tensor(np.zeros((2, 5))))


def test_revin_rejects_rows_of_another_count_and_an_empty_window():
    with pytest.raises(ShapeError, match=r"^expected 6 v-major rows for 3 variates and batch 2, "
                                         r"got shape \(5, 4\)$"):
        revin_normalize(fresh_revin(), np.zeros((5, 4)), batch=2)
    with pytest.raises(ShapeError, match="^normalization needs at least one time step$"):
        revin_normalize(fresh_revin(), np.zeros((3, 0)))


def test_up_projection_rejects_rows_of_another_width():
    w, b = Tensor(np.zeros((8, 4))), Tensor(np.zeros((1, 8)))
    with pytest.raises(ShapeError, match="^up-projection expects width 4, got 5$"):
        mixer.up_project(w, b, Tensor(np.zeros((2, 5))))


# -- tokens and views ---------------------------------------------------------

def up_project_and_prepend(params, x_initial, cfg):
    """Single-instance tokens as the stack sees them with one view."""
    tokens = mixer.up_project(params.up_w, params.up_b, R.lift(x_initial))
    return pack_views(tokens, params.eta if cfg.init_token else None, 1, False)


def reverse_latent_view(tokens):
    """The second view of tokens, as packed for the stack."""
    tokens = R.lift(tokens)
    return Tensor(pack_views(tokens, None, 1, True).data[1::2], dtype=tokens.data.dtype)


def test_up_project_and_prepend_token_counts():
    rng = np.random.default_rng(5)
    cfg = make_cfg()
    with T.precision(np.float64):
        params = init_mixer_params(cfg, rng)
    x_initial = rng.normal(size=(3, 4))
    tokens = up_project_and_prepend(params, x_initial, cfg)
    assert tokens.shape == (4, 8)
    assert np.array_equal(tokens.data[0], params.eta.data[0])

    cfg_no = make_cfg(init_token=False)
    with T.precision(np.float64):
        params_no = init_mixer_params(cfg_no, rng)
    tokens_no = up_project_and_prepend(params_no, x_initial, cfg_no)
    assert tokens_no.shape == (3, 8)


def test_up_project_zero_weights_keep_eta():
    rng = np.random.default_rng(6)
    cfg = make_cfg()
    with T.precision(np.float64):
        params = init_mixer_params(cfg, rng)
    params.up_w.data[:] = 0.0
    params.up_b.data[:] = 0.0
    tokens = up_project_and_prepend(params, rng.normal(size=(3, 4)), cfg)
    assert np.array_equal(tokens.data[0], params.eta.data[0])
    assert np.array_equal(tokens.data[1:], np.zeros((3, 8)))


def test_reverse_latent_view_cases():
    t = Tensor([[1.0, 2.0, 3.0, 4.0]])
    assert reverse_latent_view(t).data.tolist() == [[4.0, 3.0, 2.0, 1.0]]
    x = Tensor(np.random.default_rng(7).normal(size=(3, 6)))
    assert np.array_equal(reverse_latent_view(reverse_latent_view(x)).data, x.data)
    pal = Tensor([[1.0, 2.0, 2.0, 1.0]])
    assert np.array_equal(reverse_latent_view(pal).data, pal.data)


def interleaved(y1, y2):
    """Two views' rows [R, D] in the stack's layout: each row of y1 followed
    by the same row of y2."""
    return R.reshape(R.concat([y1, y2], axis=1), (2 * y1.shape[0], y1.shape[1]))


def test_reconcile_selector_and_bias():
    d = 4
    y1 = Tensor(np.random.default_rng(8).normal(size=(3, d)), dtype=np.float64)
    y2 = Tensor(np.random.default_rng(9).normal(size=(3, d)), dtype=np.float64)
    selector = Tensor(np.hstack([np.eye(d), np.zeros((d, d))]), dtype=np.float64)
    zero_bias = Tensor(np.zeros((1, d)), dtype=np.float64)
    out = reconcile_views(selector, zero_bias, interleaved(y1, y2), True)
    assert np.array_equal(out.data, y1.data)

    zero_w = Tensor(np.zeros((d, 2 * d)), dtype=np.float64)
    bias = Tensor(np.arange(d, dtype=np.float64).reshape(1, d))
    out2 = reconcile_views(zero_w, bias, interleaved(y1, y2), True)
    assert np.array_equal(out2.data, np.tile(bias.data, (3, 1)))


def test_reconcile_swap_with_mirrored_halves_is_invariant():
    rng = np.random.default_rng(10)
    d, h = 5, 7
    a = rng.normal(size=(h, d))
    b = rng.normal(size=(h, d))
    bias = Tensor(rng.normal(size=(1, h)), dtype=np.float64)
    w = Tensor(np.hstack([a, b]), dtype=np.float64)
    w_mirrored = Tensor(np.hstack([b, a]), dtype=np.float64)
    y1 = Tensor(rng.normal(size=(3, d)), dtype=np.float64)
    y2 = Tensor(rng.normal(size=(3, d)), dtype=np.float64)
    out = reconcile_views(w, bias, interleaved(y1, y2), True).data
    swapped = reconcile_views(w_mirrored, bias, interleaved(y2, y1), True).data
    assert np.abs(out - swapped).max() < 1e-12


def test_reconcile_rejects_rows_that_are_not_view_pairs():
    w, bias = Tensor(np.zeros((4, 6))), Tensor(np.zeros((1, 4)))
    with pytest.raises(ShapeError, match="2-view rows of width 3"):
        reconcile_views(w, bias, Tensor(np.zeros((5, 3))), True)
    with pytest.raises(ShapeError, match="1-view rows of width 3"):
        reconcile_views(w, bias, Tensor(np.zeros((4, 6))), False)


def test_reconcile_rejects_dropping_more_tokens_than_it_has():
    w, bias = Tensor(np.zeros((4, 6))), Tensor(np.zeros((1, 4)))
    with pytest.raises(ShapeError, match="^cannot drop 3 of 2 tokens$"):
        reconcile_views(w, bias, Tensor(np.zeros((4, 3))), True, skip=3)


# -- ablation factory ----------------------------------------------------------

def test_ablation_switch_matrix():
    base = make_cfg()
    expected = {
        1: (True, AXIS_VARIATES, True, True),
        2: (True, AXIS_TIME, True, True),
        3: (True, AXIS_VARIATES, False, True),
        4: (True, AXIS_VARIATES, True, False),
        5: (True, AXIS_VARIATES, False, False),
        6: (True, AXIS_NONE, False, False),
        7: (False, AXIS_VARIATES, True, True),
        8: (False, AXIS_VARIATES, False, True),
        9: (False, AXIS_VARIATES, True, False),
        10: (False, AXIS_VARIATES, False, False),
    }
    for cid, (mt, axis, token, view) in expected.items():
        cfg = build_ablation_config(cid, base)
        assert (cfg.mix_time, cfg.slstm_axis, cfg.init_token, cfg.mix_view) == \
            (mt, axis, token, view), f"config #{cid}"


def test_ablation_id_out_of_range():
    with pytest.raises(ConfigError):
        build_ablation_config(0, make_cfg())
    with pytest.raises(ConfigError):
        build_ablation_config(11, make_cfg())


def test_config_errors_at_construction():
    with pytest.raises(ConfigError):
        make_cfg(mix_time=False, slstm_axis=AXIS_TIME)
    with pytest.raises(ConfigError):
        make_cfg(embed_dim=16)  # block width still 8
    with pytest.raises(ConfigError):
        make_cfg(horizon=0)
    with pytest.raises(ConfigError):
        make_cfg(slstm_axis="diagonal")


def expected_param_count(cfg: MixerConfig) -> int:
    v, t_len, h_len, d = cfg.num_variates, cfg.lookback, cfg.horizon, cfg.embed_dim
    heads = cfg.block.num_heads
    n = 2 * v
    if cfg.mix_time:
        n += h_len * t_len + h_len
    n += d * cfg.up_in_dim + d
    if cfg.init_token:
        n += d
    if cfg.slstm_axis != AXIS_NONE:
        per_block = (4 * d * d            # input weights
                     + 4 * d * d // heads  # in-block recurrent entries
                     + 4 * d               # gate biases
                     + 2 * d               # layer norm
                     + d * d)              # projection
        if cfg.block.conv_width > 0:
            per_block += cfg.block.conv_width * d
        n += cfg.num_blocks * per_block
    n += cfg.view_out_dim * 2 * d + cfg.view_out_dim
    return n


@pytest.mark.parametrize("cid", list(range(1, 11)))
def test_parameter_counts_match_closed_form(cid):
    rng = np.random.default_rng(11)
    cfg = build_ablation_config(cid, make_cfg())
    params = init_mixer_params(cfg, rng)
    assert mixer.count_parameters(params) == expected_param_count(cfg)


def test_parameter_count_monotonicity():
    rng = np.random.default_rng(12)
    base = make_cfg()
    counts = {cid: mixer.count_parameters(
        init_mixer_params(build_ablation_config(cid, base), rng))
        for cid in (1, 3, 6)}
    assert counts[1] > counts[3] > counts[6]


# -- full forward ---------------------------------------------------------------

def test_zeroed_stack_reduces_to_linear_path():
    rng = np.random.default_rng(13)
    cfg = make_cfg()
    with T.precision(np.float64):
        params = init_mixer_params(cfg, rng)
    for w in params.blocks:
        w.proj_w.data[:] = 0.0
    x = rng.normal(size=(3, 8))
    y = mixer.forward_batch(params, cfg, x[None])

    x_norm, stats = revin_normalize(params.revin, x)
    x_init = mixer.nlinear_forecast(params.nlinear_w, params.nlinear_b, x_norm)
    tokens = up_project_and_prepend(params, x_init, cfg)
    y_prime = R.slice_axis(tokens, 0, 1, 4)
    y_dprime = R.slice_axis(reverse_latent_view(tokens), 0, 1, 4)
    y_norm = reconcile_views(params.view_w, params.view_b, interleaved(y_prime, y_dprime),
                             True)
    expected = revin_denormalize(params.revin, stats, y_norm)
    assert np.array_equal(y.data, expected.data)


def test_config6_is_affine_in_centered_input():
    rng = np.random.default_rng(14)
    cfg = build_ablation_config(6, make_cfg())
    with T.precision(np.float64):
        params = init_mixer_params(cfg, rng)
    x = rng.normal(0.0, 30.0, size=(3, 8))
    mu = x.mean(axis=1, keepdims=True)
    doubled = mu + 2.0 * (x - mu)
    y1 = mixer.forward_batch(params, cfg, x[None])
    y2 = mixer.forward_batch(params, cfg, doubled[None])
    assert np.abs((y2.data - mu) - 2.0 * (y1.data - mu)).max() < 1e-6


def test_config6_shift_equivariance_per_variate():
    rng = np.random.default_rng(15)
    cfg = build_ablation_config(6, make_cfg())
    with T.precision(np.float64):
        params = init_mixer_params(cfg, rng)
    x = rng.normal(size=(3, 8))
    shift = np.array([[1.0], [-2.0], [0.5]])
    y1 = mixer.forward_batch(params, cfg, x[None])
    y2 = mixer.forward_batch(params, cfg, (x + shift)[None])
    assert np.abs(y2.data - (y1.data + shift)).max() < 1e-5


def test_view_symmetry_swaps_roles_bitwise():
    rng = np.random.default_rng(17)
    cfg = make_cfg()
    params = init_mixer_params(cfg, rng)
    x = rng.normal(size=(3, 8)).astype(np.float32)
    x_norm, _ = revin_normalize(params.revin, x)
    x_init = mixer.nlinear_forecast(params.nlinear_w, params.nlinear_b, x_norm)
    tokens = up_project_and_prepend(params, x_init, cfg)
    reversed_tokens = reverse_latent_view(tokens)

    d = cfg.embed_dim

    def views(t):
        # Each token's two view outputs, side by side.
        packed = mixer.pack_views(t, None, 1, True)
        out = run_stack(cfg.block, params.blocks, packed, 2)
        return out.data.reshape(-1, 2 * d)

    out1, out2 = views(tokens), views(reversed_tokens)
    out_f1, out_r1, out_f2, out_r2 = out1[:, :d], out1[:, d:], out2[:, :d], out2[:, d:]
    assert np.array_equal(out_f2, out_r1)
    assert np.array_equal(out_r2, out_f1)


def test_tiny_problem_screens_a_seed_with_one_forward(monkeypatch):
    # Seed 0 passes its screen on the first trial: one forward builds the
    # target and measures the stabilizer gap.
    calls, forward = [], mixer.forward_batch
    monkeypatch.setattr(mixer, "forward_batch",
                        lambda *a, **k: calls.append(k) or forward(*a, **k))
    with T.precision(np.float64):
        gradcheck.build_tiny_problem(0)
    assert len(calls) == 1 and calls[0]["stabilizer"] is not None


def entry_errors(cfg=None, step: float = 1e-5) -> np.ndarray:
    """Per-entry finite-difference errors of the gradient check's tiny
    problem (seed 0), all parameters flattened in named_parameters order."""
    with T.precision(np.float64):
        params, x, target = gradcheck.build_tiny_problem(0, cfg)
        cfg = params.config
        leaves = [t for _, t, _ in params.named_parameters()]
        errors = R.finite_difference_errors(
            lambda: mae_loss(mixer.forward_batch(params, cfg, x[None]), target), leaves, step)
    return np.concatenate([e.reshape(-1) for e in errors])


def test_time_axis_forward_shapes_and_gradients():
    cfg = build_ablation_config(2, gradcheck.tiny_config())
    errors = entry_errors(cfg)
    assert errors.max() < 1e-4
    assert np.mean(errors < 1e-6) > 0.98


def test_no_time_mixing_forward_gradients():
    cfg = build_ablation_config(7, gradcheck.tiny_config())
    errors = entry_errors(cfg)
    assert errors.max() < 1e-4
    assert np.mean(errors < 1e-6) > 0.98


@pytest.mark.parametrize("cid", range(1, 11))
def test_ablation_forward_gradients(cid):
    # The product's gate passes every ablation.  The per-entry bounds hold
    # too with no learned token (3, 6, 8), no stack (6) and no time mixing
    # (8); in 4 and 5 cancellation noise on gradients below ~2.4e-6 puts
    # about 1.5% of the entries past 1e-6.
    cfg = build_ablation_config(cid, gradcheck.tiny_config())
    result = gradcheck.full_model_gradcheck(cfg=cfg)
    assert result.passed, result.directional_max_error
    if cid in (3, 6, 8):
        errors = entry_errors(cfg)
        assert errors.max() < 1e-4 and np.mean(errors < 1e-6) >= 0.99, (
            errors.max(), np.mean(errors < 1e-6))


@pytest.mark.parametrize("conv", [0, 4])
@pytest.mark.parametrize("blocks", [1, 2])
@pytest.mark.parametrize("cid", range(1, 11))
def test_directional_gradcheck_every_ablation(cid, blocks, conv):
    """The directional derivative along one random unit direction per
    parameter tensor and 8 whole-model directions matches central
    differences in every ablation, including 4 and 5, whose tiny gradient
    entries miss the per-entry gate."""
    cfg = build_ablation_config(cid, gradcheck.tiny_config(num_blocks=blocks, conv_width=conv))
    with T.precision(np.float64):
        params, x, target = gradcheck.build_tiny_problem(0, cfg)
        leaves = [t for _, t, _ in params.named_parameters()]
        errors = gradcheck.finite_difference_directional(
            lambda: mae_loss(mixer.forward_batch(params, cfg, x[None]), target),
            leaves, np.random.default_rng(0))
    assert errors.size == len(leaves) + gradcheck.WHOLE_MODEL_DIRECTIONS
    assert errors.max() < gradcheck.DIRECTIONAL_TOL, errors


def forecasts_in_windows_layout(params, cfg, xs):
    """forward_batch's forecasts of the windows xs, run without a tape, with
    one, and without one streamed a variate per chunk.  Each is [B, V, H],
    byte for byte the forecast predict_dataset gives for them."""
    ys = np.zeros((*xs.shape[:2], cfg.horizon), xs.dtype)
    want, _ = training.predict_dataset(params, cfg, ArrayDataset(xs, ys))
    forecasts = []
    for forward in ("eval", "taped", "streamed"):
        with pytest.MonkeyPatch.context() as patch:
            if forward == "streamed":
                patch.setattr(slstm, "CHUNK_ROWS", 1)
            with T.Tape() if forward == "taped" else contextlib.nullcontext():
                got = mixer.forward_batch(params, cfg, xs).data
        assert got.shape == (xs.shape[0], cfg.num_variates, cfg.horizon), forward
        assert got.tobytes() == want.tobytes(), forward
        forecasts.append(got)
    return forecasts


def test_time_axis_batched_forward_matches_single():
    rng = np.random.default_rng(27)
    cfg = build_ablation_config(2, make_cfg())
    params = init_mixer_params(cfg, rng)
    xs = rng.normal(size=(3, 3, 8)).astype(np.float32)
    for batched in forecasts_in_windows_layout(params, cfg, xs):
        for b in range(3):
            single = mixer.forward_batch(params, cfg, xs[b][None])
            for v in range(3):
                assert np.abs(batched[b, v] - single.data[0, v]).max() < 2e-6


def test_forward_rejects_nonfinite_input():
    rng = np.random.default_rng(18)
    cfg = make_cfg()
    params = init_mixer_params(cfg, rng)
    x = np.zeros((3, 8), dtype=np.float32)
    x[0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        mixer.forward_batch(params, cfg, x[None])


def test_forward_batch_rejects_nonfinite_input():
    rng = np.random.default_rng(18)
    cfg = make_cfg()
    params = init_mixer_params(cfg, rng)
    xs = np.zeros((2, 3, 8), dtype=np.float32)
    xs[1, 2, 5] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        mixer.forward_batch(params, cfg, xs)


@pytest.mark.parametrize("shape,got", [
    ((2, 6, 4), "6 variates and lookback 4"),
    ((2, 5, 8), "5 variates and lookback 8"),
    ((3, 8), r"shape \(3, 8\)"),
], ids=["same-size", "more-rows", "one-window-without-batch-axis"])
def test_forward_batch_rejects_windows_of_another_shape(shape, got):
    # [2, 6, 4] holds as many entries as [2, 3, 8]: the check comes before
    # any reshape could read it as that.
    cfg = make_cfg()
    params = init_mixer_params(cfg, np.random.default_rng(35))
    with pytest.raises(ShapeError, match=f"3 variates and lookback 8, got {got}$"):
        mixer.forward_batch(params, cfg, np.zeros(shape, dtype=np.float32))


@pytest.mark.parametrize("taped", [False, True], ids=["eval", "taped"])
def test_forward_batch_names_an_empty_batch(taped):
    # Without a tape the chunk budget divided by the batch; under a tape a
    # block rejected its zero rows.
    cfg = make_cfg()
    params = init_mixer_params(cfg, np.random.default_rng(36))
    with T.Tape() if taped else contextlib.nullcontext(), pytest.raises(ShapeError, match="got an empty batch$"):
        mixer.forward_batch(params, cfg, np.zeros((0, 3, 8), dtype=np.float32))


def test_a_forward_that_records_takes_no_out_array():
    cfg = make_cfg()
    params = init_mixer_params(cfg, np.random.default_rng(36))
    xs = np.zeros((2, 3, 8), dtype=np.float32)
    with T.Tape(), pytest.raises(ValueError, match="^a forward that records a tape takes no "
                                                   "out array$"):
        mixer.forward_batch(params, cfg, xs, out=np.empty((2, 3, 4), np.float32))


@pytest.mark.parametrize("shape,dtype", [((2, 3, 5), np.float32), ((2, 3, 4), np.float64)],
                         ids=["shape", "dtype"])
def test_forward_batch_rejects_an_out_array_of_another_shape_or_dtype(shape, dtype):
    cfg = make_cfg()
    params = init_mixer_params(cfg, np.random.default_rng(36))
    xs = np.zeros((2, 3, 8), dtype=np.float32)
    out = np.empty(shape, dtype)
    with pytest.raises(ShapeError, match=re.escape(
            f"out must be float32 of shape (2, 3, 4), got {out.dtype} of shape {shape}")):
        mixer.forward_batch(params, cfg, xs, out=out)


@pytest.mark.parametrize("taped", [False, True], ids=["eval", "taped"])
def test_training_with_dropout_needs_an_rng(taped):
    cfg = make_cfg(block=BlockConfig(d_hidden=8, num_heads=2, dropout_rate=0.1))
    params = init_mixer_params(cfg, np.random.default_rng(37))
    xs = np.zeros((2, 3, 8), dtype=np.float32)
    with T.Tape() if taped else contextlib.nullcontext(), pytest.raises(
            ValueError, match="^training with dropout needs an rng$"):
        mixer.forward_batch(params, cfg, xs, training=True)


def test_batched_forward_matches_single_instances():
    rng = np.random.default_rng(19)
    cfg = make_cfg()
    params = init_mixer_params(cfg, rng)
    xs = rng.normal(size=(4, 3, 8)).astype(np.float32)
    for batched in forecasts_in_windows_layout(params, cfg, xs):
        for b in range(4):
            single = mixer.forward_batch(params, cfg, xs[b][None])
            for v in range(3):
                assert np.abs(batched[b, v] - single.data[0, v]).max() < 1e-6


# -- initial-token decoding -----------------------------------------------------

def test_decode_token_zeroed_stack_gives_view_bias():
    rng = np.random.default_rng(20)
    cfg = make_cfg()
    params = init_mixer_params(cfg, rng)
    for w in params.blocks:
        w.proj_w.data[:] = 0.0
    params.view_w.data[:] = 0.0
    params.view_b.data[:] = np.arange(4.0, dtype=np.float32)
    out = mixer.decode_init_token(params, cfg)
    assert np.array_equal(out.data, params.view_b.data)


def test_decode_token_shape_and_determinism():
    rng = np.random.default_rng(21)
    for cid in (1, 3, 4):
        cfg = build_ablation_config(cid, make_cfg())
        if not cfg.init_token:
            continue
        params = init_mixer_params(cfg, rng)
        a = mixer.decode_init_token(params, cfg)
        b = mixer.decode_init_token(params, cfg)
        assert a.shape == (1, cfg.horizon)
        assert np.array_equal(a.data, b.data)


@pytest.mark.parametrize("mix_view", [True, False])
def test_decode_token_leaves_the_learned_token_unwritten(mix_view):
    # With mix_view off, packing hands the stack params.eta itself.
    cfg = make_cfg(mix_view=mix_view, num_blocks=2)
    params = init_mixer_params(cfg, np.random.default_rng(23))
    eta = params.eta.data.tobytes()
    mixer.decode_init_token(params, cfg)
    assert params.eta.data.tobytes() == eta


@pytest.mark.parametrize("conv", [0, 4])
@pytest.mark.parametrize("blocks", [1, 2])
def test_decode_token_gradients_match_finite_differences(blocks, conv):
    # Under a tape the decode's stream records, so each block keeps the
    # history its backward reads.
    cfg = gradcheck.tiny_config(num_blocks=blocks, conv_width=conv)
    with T.precision(np.float64):
        params = init_mixer_params(cfg, np.random.default_rng(24))
        weights = Tensor(np.random.default_rng(25).normal(size=(1, cfg.horizon)))
        errors = gradcheck.finite_difference_directional(
            lambda: R.reduce_sum(R.mul(mixer.decode_init_token(params, cfg), weights)),
            [t for _, t, _ in params.named_parameters()], np.random.default_rng(0))
    assert errors.max() < gradcheck.DIRECTIONAL_TOL, errors


def test_decode_token_requires_token():
    rng = np.random.default_rng(22)
    cfg = build_ablation_config(3, make_cfg())
    params = init_mixer_params(cfg, rng)
    with pytest.raises(ConfigError):
        mixer.decode_init_token(params, cfg)


# -- checkpoints -----------------------------------------------------------------

@pytest.mark.parametrize("cid", list(range(1, 11)))
def test_checkpoint_roundtrip_bit_exact(tmp_path, cid):
    # Every ablation: with and without eta and nlinear.*, on the time axis,
    # and with no blocks at all.
    rng = np.random.default_rng(23)
    cfg = build_ablation_config(cid, make_cfg(num_blocks=2, block=BlockConfig(
        d_hidden=8, num_heads=2, conv_width=4, dropout_rate=0.1)))
    params = init_mixer_params(cfg, rng)
    mixer.save_checkpoint(tmp_path / "ck", params, extra={"note": "x"})
    loaded, loaded_cfg, extra = mixer.load_checkpoint(tmp_path / "ck")
    assert extra == {"note": "x"}
    assert loaded_cfg == cfg
    originals = dict((n, t.data) for n, t, _ in params.named_parameters())
    for name, tensor, _ in loaded.named_parameters():
        assert tensor.data.dtype == originals[name].dtype
        assert np.array_equal(tensor.data, originals[name]), name

    x = rng.normal(size=(3, 8)).astype(np.float32)
    y0 = mixer.forward_batch(params, cfg, x[None])
    y1 = mixer.forward_batch(loaded, loaded_cfg, x[None])
    assert np.array_equal(y0.data, y1.data)


def test_every_parameter_receives_finite_gradient():
    rng = np.random.default_rng(25)
    cfg = make_cfg(block=BlockConfig(d_hidden=8, num_heads=2, conv_width=2,
                                     dropout_rate=0.0))
    params = init_mixer_params(cfg, rng)
    x = rng.normal(size=(3, 8)).astype(np.float32)
    target = rng.normal(size=(3, 4)).astype(np.float32)
    triples = list(params.named_parameters())
    for _, t, _ in triples:
        t.zero_grad()
    with T.Tape() as tape:
        y = mixer.forward_batch(params, cfg, x[None])
        loss = R.reduce_mean(R.absval(R.sub(y, Tensor(target))))
        tape.backward(loss)
    for name, t, _ in triples:
        assert t.grad is not None, f"{name} got no gradient"
        assert np.isfinite(t.grad).all(), f"{name} gradient not finite"


def test_checkpoint_roundtrip_float64(tmp_path):
    rng = np.random.default_rng(26)
    cfg = make_cfg()
    with T.precision(np.float64):
        params = init_mixer_params(cfg, rng)
    mixer.save_checkpoint(tmp_path / "ck64", params)
    manifest = (tmp_path / "ck64" / "manifest.txt").read_text()
    assert "float64" in manifest
    loaded, _, _ = mixer.load_checkpoint(tmp_path / "ck64")
    for (name, a, _), (_, b, _) in zip(params.named_parameters(),
                                       loaded.named_parameters()):
        assert b.data.dtype == np.float64
        assert np.array_equal(a.data, b.data), name


def test_checkpoint_manifest_contents(tmp_path):
    rng = np.random.default_rng(24)
    cfg = make_cfg()
    params = init_mixer_params(cfg, rng)
    mixer.save_checkpoint(tmp_path / "ck", params)
    manifest = (tmp_path / "ck" / "manifest.txt").read_text().splitlines()
    names = {line.split("\t")[0] for line in manifest}
    assert "eta" in names and "view.weight" in names
    for line in manifest:
        name, shape, width = line.split("\t")
        assert width == "float32"
        assert (tmp_path / "ck" / f"{name}.bin").exists()


def test_checkpoint_rejects_unsafe_manifest_name(tmp_path):
    params = init_mixer_params(make_cfg(), np.random.default_rng(28))
    ck = tmp_path / "ck"
    mixer.save_checkpoint(ck, params)
    # A name that climbs out of the checkpoint directory, with a file of the
    # right size waiting there.
    (ck / "eta.bin").rename(tmp_path / "eta.bin")
    manifest = ck / "manifest.txt"
    manifest.write_text(manifest.read_text().replace("eta\t", "../eta\t"))
    with pytest.raises(ValueError, match="not filesystem-safe"):
        mixer.load_checkpoint(ck)


def test_save_rejects_an_unsafe_parameter_name_and_keeps_no_staging(tmp_path):
    params = init_mixer_params(make_cfg(), np.random.default_rng(28))
    named = list(params.named_parameters())
    params.named_parameters = lambda: iter([("../eta", named[0][1], None)])
    with pytest.raises(ValueError, match="^parameter name '../eta' is not filesystem-safe$"):
        mixer.save_checkpoint(tmp_path / "ck", params)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("cell", ["3xa", "x8", "1x8x", "", "-1x8", "1 x8", "1x٨"])
def test_checkpoint_rejects_a_malformed_shape_cell(tmp_path, cell):
    # int() would raise without naming the line, or take -1 or a non-ASCII
    # digit, and a negative size would reach the file-size check.
    ck = tmp_path / "ck"
    mixer.save_checkpoint(ck, init_mixer_params(make_cfg(), np.random.default_rng(29)))
    manifest = ck / "manifest.txt"
    manifest.write_text(manifest.read_text().replace("eta\t1x8\t", f"eta\t{cell}\t"))
    with pytest.raises(ValueError, match=re.escape(f"malformed manifest line 'eta\\t{cell}\\t")):
        mixer.load_checkpoint(ck)


def test_checkpoint_rejects_truncated_file(tmp_path):
    params = init_mixer_params(make_cfg(), np.random.default_rng(29))
    ck = tmp_path / "ck"
    mixer.save_checkpoint(ck, params)
    path = ck / "view.weight.bin"
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(ValueError, match="view.weight.bin holds .* expected"):
        mixer.load_checkpoint(ck)


# A checkpoint written before per-head recurrent storage: its r_* matrices are
# dense [D, D] with zero off-block entries.  init_mixer_params(cfg,
# default_rng(extra["init_seed"])) drew it in float32, and the forecast
# file holds a float32 window [1, V, T] and the forecast that code gave for it.
V1_CHECKPOINT = Path(__file__).parent / "data" / "ckpt_v1"


def test_v1_checkpoint_forecast_is_bitwise_unchanged():
    params, cfg, _ = mixer.load_checkpoint(V1_CHECKPOINT)
    assert params.blocks[0].cell.r_f.shape == (2, 4, 4)
    stored = np.load(V1_CHECKPOINT.with_name("ckpt_v1_forecast.npz"))
    got = mixer.forward_batch(params, cfg, stored["window"]).data
    assert got.dtype == np.float32 and got.shape == (1, *stored["forecast"].shape)
    assert got.tobytes() == stored["forecast"].tobytes()


def test_v1_checkpoint_equals_same_seed_init(tmp_path):
    loaded, cfg, extra = mixer.load_checkpoint(V1_CHECKPOINT)
    fresh = init_mixer_params(cfg, np.random.default_rng(extra["init_seed"]))
    mixer.save_checkpoint(tmp_path / "ck", fresh)
    assert "blocks.0.cell.r_f\t2x4x4\tfloat32" in (tmp_path / "ck" / "manifest.txt").read_text()
    for name, tensor, _ in loaded.named_parameters():
        saved = (tmp_path / "ck" / f"{name}.bin").read_bytes()
        assert saved == tensor.data.astype("<f4").tobytes(), name


def test_v1_checkpoint_config_resaves_byte_equal(tmp_path):
    params, _, extra = mixer.load_checkpoint(V1_CHECKPOINT)
    mixer.save_checkpoint(tmp_path / "ck", params, extra=extra)
    assert ((tmp_path / "ck" / "config.json").read_bytes()
            == (V1_CHECKPOINT / "config.json").read_bytes())


def test_checkpoint_rejects_off_block_recurrent_weight(tmp_path):
    ck = tmp_path / "ck"
    shutil.copytree(V1_CHECKPOINT, ck)
    path = ck / "blocks.0.cell.r_f.bin"
    r = np.fromfile(path, dtype="<f4").reshape(8, 8)
    assert r[0, 7] == 0.0  # row 0 is in head 0, column 7 in head 1
    r[0, 7] = 0.5
    r.tofile(path)
    with pytest.raises(ValueError, match=r"blocks\.0\.cell\.r_f\.bin .*outside its head blocks"):
        mixer.load_checkpoint(ck)


def _append_line(ck, line):
    manifest = ck / "manifest.txt"
    manifest.write_text(manifest.read_text() + line + "\n")


def _write_nan(ck):
    path = ck / "view.weight.bin"
    w = np.fromfile(path, dtype="<f4")
    w[3] = np.nan
    w.tofile(path)


def _add_extra(ck):
    _append_line(ck, "bogus\t1x2\tfloat32")
    np.zeros(2, dtype="<f4").tofile(ck / "bogus.bin")


def _repeat_eta(ck):
    _append_line(ck, "eta\t1x8\tfloat32")


def _widen_eta(ck):
    path = ck / "eta.bin"
    np.fromfile(path, dtype="<f4").astype("<f8").tofile(path)
    manifest = ck / "manifest.txt"
    manifest.write_text(manifest.read_text().replace("eta\t1x8\tfloat32",
                                                     "eta\t1x8\tfloat64"))


def _drop_up_weight(ck):
    manifest = ck / "manifest.txt"
    lines = manifest.read_text().splitlines(keepends=True)
    manifest.write_text("".join(l for l in lines if not l.startswith("up.weight\t")))


@pytest.mark.parametrize("tamper,message", [
    (_write_nan, r"view\.weight\.bin: parameter view\.weight holds non-finite values"),
    (_add_extra, "no slot for: bogus"),
    (_repeat_eta, "lists parameter eta twice"),
    (_widen_eta, "parameter eta is float64, the entries before it float32"),
    (_drop_up_weight, r"missing parameter up\.weight"),
], ids=["nan", "extra", "duplicate", "mixed-width", "missing"])
def test_checkpoint_rejects_tampered_manifest(tmp_path, tamper, message):
    cfg = make_cfg(block=BlockConfig(d_hidden=8, num_heads=2))
    ck = tmp_path / "ck"
    mixer.save_checkpoint(ck, init_mixer_params(cfg, np.random.default_rng(30)))
    tamper(ck)
    with pytest.raises(ValueError, match=message):
        mixer.load_checkpoint(ck)


def _edit_config(ck, edit):
    path = ck / "config.json"
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("edit,message", [
    (lambda doc: doc.pop("mix_view"), r"config\.json: missing keys \['mix_view'\]"),
    (lambda doc: doc.update(window=3), r"config\.json: .*unknown keys \['window'\]"),
    (lambda doc: doc["block"].pop("num_heads"),
     r"config\.json block: missing keys \['num_heads'\]"),
    (lambda doc: doc["block"].update(bias=True),
     r"config\.json block: .*unknown keys \['bias'\]"),
    (lambda doc: doc.update(block=None), r"config\.json block is not a mapping"),
    (lambda doc: doc.update(num_blocks=True), r"config\.json: num_blocks must be int"),
    (lambda doc: doc.update(slstm_axis=1), r"config\.json: slstm_axis must be str"),
    (lambda doc: doc["block"].update(dropout_rate="0.1"),
     r"config\.json block: dropout_rate must be float"),
], ids=["missing", "unknown", "block-missing", "block-unknown", "block-null",
        "bool-for-int", "int-for-str", "block-str-for-float"])
def test_checkpoint_rejects_config_keys_by_name(tmp_path, edit, message):
    ck = tmp_path / "ck"
    mixer.save_checkpoint(ck, init_mixer_params(make_cfg(), np.random.default_rng(33)))
    _edit_config(ck, edit)
    with pytest.raises(ValueError, match=message):
        mixer.load_checkpoint(ck)


def test_checkpoint_without_extra_loads(tmp_path):
    ck = tmp_path / "ck"
    params = init_mixer_params(make_cfg(), np.random.default_rng(34))
    mixer.save_checkpoint(ck, params, extra={"seed": 1})
    _edit_config(ck, lambda doc: doc.pop("extra"))
    loaded, cfg, extra = mixer.load_checkpoint(ck)
    assert (cfg, extra) == (params.config, {})


class _FailingWrite(np.ndarray):
    def tofile(self, *args, **kwargs):
        raise OSError("disk full")


def test_failed_checkpoint_save_keeps_previous_checkpoint(tmp_path):
    rng = np.random.default_rng(31)
    cfg = make_cfg()
    before = init_mixer_params(cfg, rng)
    ck = tmp_path / "ck"
    mixer.save_checkpoint(ck, before)

    after = init_mixer_params(cfg, rng)
    third = list(after.named_parameters())[2][1]
    third.data = third.data.view(_FailingWrite)  # the third file write raises
    with pytest.raises(OSError, match="disk full"):
        mixer.save_checkpoint(ck, after)

    loaded, _, _ = mixer.load_checkpoint(ck)
    for (name, a, _), (_, b, _) in zip(before.named_parameters(),
                                       loaded.named_parameters()):
        assert a.data.tobytes() == b.data.tobytes(), name
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ck"]


def test_failed_checkpoint_swap_restores_previous_checkpoint(tmp_path, monkeypatch):
    rng = np.random.default_rng(34)
    cfg = make_cfg()
    before = init_mixer_params(cfg, rng)
    ck = tmp_path / "ck"
    mixer.save_checkpoint(ck, before)

    # The old directory moves aside, then moving the new one into place fails.
    rename, calls = Path.rename, []

    def failing_rename(self, target):
        calls.append(target)
        if len(calls) == 2:
            raise OSError("rename failed")
        return rename(self, target)

    monkeypatch.setattr(Path, "rename", failing_rename)
    with pytest.raises(OSError, match="rename failed"):
        mixer.save_checkpoint(ck, init_mixer_params(cfg, rng))
    monkeypatch.undo()

    assert calls[1] == ck  # the swap itself failed
    loaded, _, _ = mixer.load_checkpoint(ck)
    for (name, a, _), (_, b, _) in zip(before.named_parameters(),
                                       loaded.named_parameters()):
        assert a.data.tobytes() == b.data.tobytes(), name
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ck"]


KILLED_BETWEEN_RENAMES = """
import os, sys
from pathlib import Path
import numpy as np
from mixcast import mixer

ck = Path(sys.argv[1])
params, cfg, _ = mixer.load_checkpoint(ck)
rename, calls = Path.rename, []

def killing_rename(self, target):
    calls.append(target)
    if len(calls) == int(sys.argv[2]):
        os._exit(3)
    return rename(self, target)

Path.rename = killing_rename
mixer.save_checkpoint(ck, mixer.init_mixer_params(cfg, np.random.default_rng(1)))
"""


def kill_a_save(ck, at_rename):
    """Save over the checkpoint ck in a process that exits at its
    at_rename-th rename: 1 retires ck, 2 moves the new one into place."""
    src = str(Path(mixer.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    done = subprocess.run([sys.executable, "-c", KILLED_BETWEEN_RENAMES, str(ck),
                           str(at_rename)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 3, done.stderr


def test_a_save_killed_between_its_renames_is_named_on_load(tmp_path):
    rng = np.random.default_rng(35)
    before = init_mixer_params(make_cfg(), rng)
    ck = tmp_path / "ck"
    mixer.save_checkpoint(ck, before)
    kill_a_save(ck, 2)

    # Only the retired directory and the unfinished staging one are left.
    (old,) = tmp_path.glob(".ck.*.old")
    assert not ck.exists() and len(list(tmp_path.glob(".ck.*.tmp"))) == 1
    # A retired sibling of the checkpoint "ck.v2" is not this one's.
    (tmp_path / f".ck.v2.{'0' * 32}.old").mkdir()
    with pytest.raises(FileNotFoundError, match=re.escape(str(old))) as raised:
        mixer.load_checkpoint(ck)
    assert ".ck.v2." not in str(raised.value)
    # It holds the last complete checkpoint.
    loaded, _, _ = mixer.load_checkpoint(old)
    for (name, a, _), (_, b, _) in zip(before.named_parameters(),
                                       loaded.named_parameters()):
        assert a.data.tobytes() == b.data.tobytes(), name


@pytest.mark.parametrize("at_rename", [1, 2], ids=["before-retiring", "between-renames"])
def test_the_next_save_removes_what_a_killed_save_left(tmp_path, at_rename):
    # A save killed before it retires ck leaves its staging directory; one
    # killed between its renames leaves that and the retired ck.
    rng = np.random.default_rng(36)
    cfg = make_cfg()
    ck = tmp_path / "ck"
    mixer.save_checkpoint(ck, init_mixer_params(cfg, rng))
    kill_a_save(ck, at_rename)
    left = sorted(p.name for p in tmp_path.glob(".ck.*"))
    assert [name.rsplit(".", 1)[1] for name in left] == ["old", "tmp"][2 - at_rename:]
    decoys = [f".ck.v2.{'0' * 32}.old", f".ckx.{'0' * 32}.tmp", f".ck.{'0' * 31}.tmp",
              f".ck.{'0' * 32}.bak"]
    for name in decoys:
        (tmp_path / name).mkdir()
    newer = init_mixer_params(cfg, rng)
    mixer.save_checkpoint(ck, newer)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(decoys + ["ck"])
    loaded, _, _ = mixer.load_checkpoint(ck)
    for (name, a, _), (_, b, _) in zip(newer.named_parameters(),
                                       loaded.named_parameters()):
        assert a.data.tobytes() == b.data.tobytes(), name


def test_checkpoint_save_replaces_and_leaves_no_temporary(tmp_path):
    rng = np.random.default_rng(32)
    cfg = make_cfg()
    ck = tmp_path / "ck"
    mixer.save_checkpoint(ck, init_mixer_params(cfg, rng))
    newer = init_mixer_params(cfg, rng)
    mixer.save_checkpoint(ck, newer, extra={"epoch": 2})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ck"]
    loaded, _, extra = mixer.load_checkpoint(ck)
    assert extra == {"epoch": 2}
    for (name, a, _), (_, b, _) in zip(newer.named_parameters(),
                                       loaded.named_parameters()):
        assert a.data.tobytes() == b.data.tobytes(), name
