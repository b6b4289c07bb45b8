"""Composed-op pipeline stages: the oracle for the fused stage ops.

This is the formulation the library used before each pipeline stage became
one engine op: RevIN, the linear forecaster, the up-projection, the token
and view layout, and reconciliation are built from the ops of
``engine_reference`` (per-variate row gathers, slices, concatenations,
reversals, transposes), so the tape differentiates them op by op.  The recurrent stack itself is the
library's fused one, which ``slstm_reference`` checks separately.
"""

from __future__ import annotations

import numpy as np

from mixcast.mixer import (AXIS_NONE, AXIS_TIME, REVIN_EPS, MixerConfig, MixerParams,
                           RevInParams)
from mixcast.tensor import ShapeError, Tensor

import engine_reference as R
from conftest import run_stack


def windows_of(rows, batch: int) -> np.ndarray:
    """v-major rows [V*B, W] read in the windows' layout [B, V, W] (a view):
    the layout of forward_batch's windows and forecasts, for comparing them
    with the rows of this module's pipeline."""
    return rows.reshape(-1, batch, rows.shape[1]).transpose(1, 0, 2)


def _tile_per_variate(column: Tensor, batch: int) -> Tensor:
    """[V,1] per-variate column -> [V*B,1] rows matching the v-major layout."""
    if batch == 1:
        return column
    idx = np.repeat(np.arange(column.shape[0]), batch)
    return R.take_rows(column, idx)


def revin_normalize(params: RevInParams, x, batch: int = 1):
    """Rows to zero mean / unit variance, scaled by gamma, shifted by beta;
    returns the normalized rows and the (mean, std) tensors."""
    x = R.lift(x)
    if x.shape[1] < 1:
        raise ShapeError("normalization needs at least one time step")
    mean = R.reduce_mean(x, axis=1, keepdims=True)
    std = R.sqrt(R.add(R.reduce_var(x, axis=1, keepdims=True), REVIN_EPS))
    gamma = _tile_per_variate(params.gamma, batch)
    beta = _tile_per_variate(params.beta, batch)
    return R.add(R.mul(gamma, R.div(R.sub(x, mean), std)), beta), (mean, std)


def revin_denormalize(params: RevInParams, stats, y_norm, batch: int = 1):
    mean, std = stats
    gamma = _tile_per_variate(params.gamma, batch)
    beta = _tile_per_variate(params.beta, batch)
    return R.add(R.mul(R.div(R.sub(y_norm, beta), gamma), std), mean)


def nlinear_forecast(weight: Tensor, bias: Tensor, x_norm) -> Tensor:
    x_norm = R.lift(x_norm)
    t_len = x_norm.shape[1]
    last = R.slice_axis(x_norm, 1, t_len - 1, t_len)
    out = R.add(R.matmul(R.sub(x_norm, last), R.transpose(weight)), bias)
    return R.add(out, last)


def up_project(weight: Tensor, bias: Tensor, rows) -> Tensor:
    return R.add(R.matmul(rows, R.transpose(weight)), bias)


def up_project_and_prepend(params: MixerParams, x_initial, cfg: MixerConfig) -> Tensor:
    """Single-instance tokens: up-projected rows behind the learned token."""
    tokens = up_project(params.up_w, params.up_b, x_initial)
    if cfg.init_token:
        tokens = R.concat([params.eta, tokens], axis=0)
    return tokens


def reverse_latent_view(tokens) -> Tensor:
    """Flip each token's feature dimensions; token order is unchanged."""
    return R.reverse(tokens, axis=1)


def reconcile_views(view_w: Tensor, view_b: Tensor, y_prime, y_double_prime) -> Tensor:
    cat = R.concat([y_prime, y_double_prime], axis=1)
    return R.add(R.matmul(cat, R.transpose(view_w)), view_b)


def _swap_row_axes(t: Tensor, outer: int, inner: int) -> Tensor:
    """Reorder rows indexed (a, b), a < outer, b < inner, to (b, a)."""
    order = np.arange(outer * inner).reshape(outer, inner).T.reshape(-1)
    return R.take_rows(t, order)


def make_tokens(params: MixerParams, cfg: MixerConfig, x_initial: Tensor,
                batch: int) -> Tensor:
    """Token-major [L*B, D] stack rows with the learned token as token 0."""
    if cfg.slstm_axis == AXIS_TIME:
        v, steps = cfg.num_variates, x_initial.shape[1]
        by_step = R.transpose(R.reshape(x_initial, (v, batch * steps)))
        x_initial = _swap_row_axes(by_step, batch, steps)
    tokens = up_project(params.up_w, params.up_b, x_initial)
    if cfg.init_token:
        eta_tok = params.eta if batch == 1 else R.take_rows(params.eta, [0] * batch)
        tokens = R.concat([eta_tok, tokens], axis=0)
    return tokens


def refine_views(params: MixerParams, cfg: MixerConfig, tokens: Tensor, batch: int,
                 training: bool, rng):
    """Forward and feature-reversed stack outputs, both views in one stack
    call as a batch of 2B with each forward row followed by its reversed row."""
    rev = reverse_latent_view(tokens)
    if cfg.slstm_axis == AXIS_NONE:
        return tokens, (rev if cfg.mix_view else tokens)
    if not cfg.mix_view:
        out = run_stack(cfg.block, params.blocks, tokens, batch, training, rng)
        return out, out
    rows, d = tokens.shape
    both = R.reshape(R.concat([tokens, rev], axis=1), (2 * rows, d))
    out = run_stack(cfg.block, params.blocks, both, 2 * batch, training, rng)
    out = R.reshape(out, (rows, 2 * d))
    return R.slice_axis(out, 1, 0, d), R.slice_axis(out, 1, d, 2 * d)


def forward_flat(params: MixerParams, cfg: MixerConfig, x_flat, batch: int,
                 training: bool = False, rng=None) -> Tensor:
    """The whole pipeline on v-major rows [V*B, T]; returns [V*B, H]."""
    v = cfg.num_variates
    x_norm, stats = revin_normalize(params.revin, x_flat, batch)
    x_initial = (nlinear_forecast(params.nlinear_w, params.nlinear_b, x_norm)
                 if cfg.mix_time else x_norm)
    tokens = make_tokens(params, cfg, x_initial, batch)
    out_f, out_r = refine_views(params, cfg, tokens, batch, training, rng)
    skip = batch if cfg.init_token else 0
    rows = tokens.shape[0]
    y_prime = R.slice_axis(out_f, 0, skip, rows)
    y_dprime = y_prime if out_r is out_f else R.slice_axis(out_r, 0, skip, rows)
    y_tok = reconcile_views(params.view_w, params.view_b, y_prime, y_dprime)
    if cfg.slstm_axis == AXIS_TIME:
        by_batch = _swap_row_axes(y_tok, cfg.horizon, batch)
        y_tok = R.reshape(R.transpose(by_batch), (v * batch, cfg.horizon))
    return revin_denormalize(params.revin, stats, y_tok, batch)
