"""Forecasting pipeline: reversible instance normalization, shared linear
time mixing, up-projection with a learned initial token, two-view recurrent
refinement, and view reconciliation.

The pipeline runs per instance on a [V, T] window and produces a [V, H]
forecast.  Internally everything is computed on a flat v-major matrix whose
rows are (variate, batch-item) pairs, so a whole mini-batch shares one tape;
the single-instance entry points are the B = 1 case of the same code.  These
rows are already the token-major layout the recurrent stack takes.

Each stage (RevIN, the linear forecaster, the up-projection, the packing of
the stack input, reconciliation, and the RevIN inverse) is one engine op
computed on numpy arrays with a hand-written backward, and keeps the arrays
its backward needs only while a tape records it.  The packing op writes the
learned token's rows, the forward rows and the feature-reversed rows straight
into one interleaved [L*2B, D] matrix, so both views run through the stack in
one call as a batch of 2B; the stack output read as [L*B, 2D] (a view, not a
copy) holds each token's two view outputs side by side, which is the input
reconciliation takes.

Ablation switches: ``mix_time`` toggles the shared linear forecaster,
``slstm_axis`` selects what the recurrence strides over ("variates", "time",
or "none" to skip it), ``init_token`` toggles the learned conditioning token,
and ``mix_view`` toggles the feature-reversed second view.  With ``mix_view``
off the reconciliation layer keeps its 2D width and sees the first view
duplicated, so parameter shapes stay comparable across ablations.
"""

from __future__ import annotations

import json
import re
import shutil
import uuid
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import slstm
from . import tensor as T
from .slstm import BlockConfig, BlockWeights
from .tensor import ShapeError, Tensor

AXIS_VARIATES = "variates"
AXIS_TIME = "time"
AXIS_NONE = "none"

REVIN_EPS = 1e-5


class ConfigError(ValueError):
    """Raised for inconsistent pipeline configurations at construction time."""


@dataclass
class MixerConfig:
    lookback: int
    horizon: int
    num_variates: int
    embed_dim: int
    num_blocks: int
    block: BlockConfig
    mix_time: bool = True
    slstm_axis: str = AXIS_VARIATES
    init_token: bool = True
    mix_view: bool = True

    def __post_init__(self):
        for name in ("lookback", "horizon", "num_variates", "embed_dim", "num_blocks"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.slstm_axis not in (AXIS_VARIATES, AXIS_TIME, AXIS_NONE):
            raise ConfigError(f"unknown slstm_axis {self.slstm_axis!r}")
        if self.block.d_hidden != self.embed_dim:
            raise ConfigError(
                f"block width {self.block.d_hidden} must equal embed_dim {self.embed_dim}"
            )
        if not self.mix_time and self.slstm_axis == AXIS_TIME:
            raise ConfigError("slstm_axis='time' requires mix_time (tokens are forecast steps)")

    @property
    def up_in_dim(self) -> int:
        """Input width of the shared up-projection."""
        if self.slstm_axis == AXIS_TIME:
            return self.num_variates
        return self.horizon if self.mix_time else self.lookback

    @property
    def view_out_dim(self) -> int:
        """Output width of the reconciliation layer (per token)."""
        return self.num_variates if self.slstm_axis == AXIS_TIME else self.horizon


# Switch matrix for the ten ablation configurations:
# (mix_time, slstm_axis, init_token, mix_view)
_ABLATIONS = {
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


def build_ablation_config(config_id: int, base: MixerConfig) -> MixerConfig:
    """Return base with the switches of one numbered ablation configuration."""
    if config_id not in _ABLATIONS:
        raise ConfigError(f"ablation id must be in 1..10, got {config_id}")
    mix_time, axis, token, view = _ABLATIONS[config_id]
    return replace(base, mix_time=mix_time, slstm_axis=axis,
                   init_token=token, mix_view=view)


@dataclass
class RevInParams:
    gamma: Tensor  # [V, 1] learnable scale per variate
    beta: Tensor   # [V, 1] learnable offset per variate
    epsilon: float = REVIN_EPS


@dataclass
class RevInStats:
    """Per-row normalization statistics retained for inversion."""

    mean: Tensor  # [rows, 1]
    std: Tensor   # [rows, 1], sqrt(var + eps) >= sqrt(eps)


@dataclass
class MixerParams:
    config: MixerConfig
    revin: RevInParams
    nlinear_w: Tensor | None  # [H, T]
    nlinear_b: Tensor | None  # [1, H]
    up_w: Tensor              # [D, up_in_dim]
    up_b: Tensor              # [1, D]
    eta: Tensor | None        # [1, D] learned initial token
    blocks: list[BlockWeights] = field(default_factory=list)
    view_w: Tensor = None     # [view_out_dim, 2D]
    view_b: Tensor = None     # [1, view_out_dim]

    def named_parameters(self):
        yield "revin.gamma", self.revin.gamma, None
        yield "revin.beta", self.revin.beta, None
        if self.nlinear_w is not None:
            yield "nlinear.weight", self.nlinear_w, None
            yield "nlinear.bias", self.nlinear_b, None
        yield "up.weight", self.up_w, None
        yield "up.bias", self.up_b, None
        if self.eta is not None:
            yield "eta", self.eta, None
        for b, w in enumerate(self.blocks):
            yield from w.named_parameters(f"blocks.{b}.")
        yield "view.weight", self.view_w, None
        yield "view.bias", self.view_b, None


@dataclass
class ForwardTrace:
    """Named intermediates of one forward pass (single instance).  The
    stage outputs are the tensors the pipeline used; x_up, x_up_reversed and
    the two view outputs are read out as constants, without gradients."""

    x_norm: Tensor
    x_initial: Tensor
    x_up: Tensor
    x_up_reversed: Tensor
    y_prime: Tensor
    y_double_prime: Tensor
    y_norm: Tensor
    y: Tensor


def init_mixer_params(cfg: MixerConfig, rng, dtype=None) -> MixerParams:
    """Draw all pipeline weights; the rng stream order is fixed for determinism."""
    v, t_len, h_len, d = cfg.num_variates, cfg.lookback, cfg.horizon, cfg.embed_dim

    def uniform(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True, dtype=dtype)

    revin = RevInParams(
        gamma=Tensor(np.ones((v, 1)), requires_grad=True, dtype=dtype),
        beta=Tensor(np.zeros((v, 1)), requires_grad=True, dtype=dtype),
    )
    nlinear_w = nlinear_b = None
    if cfg.mix_time:
        nlinear_w = uniform((h_len, t_len), t_len)
        nlinear_b = Tensor(np.zeros((1, h_len)), requires_grad=True, dtype=dtype)
    up_w = uniform((d, cfg.up_in_dim), cfg.up_in_dim)
    up_b = Tensor(np.zeros((1, d)), requires_grad=True, dtype=dtype)
    eta = uniform((1, d), d) if cfg.init_token else None
    blocks = []
    if cfg.slstm_axis != AXIS_NONE:
        blocks = [slstm.init_block_weights(cfg.block, rng, dtype=dtype)
                  for _ in range(cfg.num_blocks)]
    view_w = uniform((cfg.view_out_dim, 2 * d), 2 * d)
    view_b = Tensor(np.zeros((1, cfg.view_out_dim)), requires_grad=True, dtype=dtype)
    return MixerParams(config=cfg, revin=revin, nlinear_w=nlinear_w, nlinear_b=nlinear_b,
                       up_w=up_w, up_b=up_b, eta=eta, blocks=blocks,
                       view_w=view_w, view_b=view_b)


def count_parameters(params: MixerParams, logical: bool = True) -> int:
    """Total scalar parameters; block-diagonal recurrent matrices count only
    their in-block entries when logical=True."""
    total = 0
    for _, tensor, mask in params.named_parameters():
        if logical and mask is not None:
            total += int(mask.sum())
        else:
            total += tensor.size
    return total


def _per_variate(a: np.ndarray, variates: int) -> np.ndarray:
    """v-major rows [V*B, W] viewed as [V, B, W], so that a per-variate
    column [V, 1] broadcasts as [V, 1, 1]."""
    return a.reshape(variates, -1, a.shape[1])


def _check_variate_rows(t: Tensor, variates: int, batch: int) -> None:
    if t.data.ndim != 2 or t.shape[0] != variates * batch:
        raise ShapeError(f"expected {variates * batch} v-major rows for {variates} "
                         f"variates and batch {batch}, got shape {t.shape}")


def revin_normalize(params: RevInParams, x, batch: int = 1):
    """Normalize rows to zero mean / unit variance, then scale by gamma and
    shift by beta.  Returns the normalized matrix and the stats for inversion.

    The normalization is one engine op.  The stats are recorded as well
    when x requires grad, so x gets its exact gradient through both uses."""
    x = T.as_tensor(x)
    gamma, beta = params.gamma, params.beta
    v = gamma.shape[0]
    _check_variate_rows(x, v, batch)
    if x.shape[1] < 1:
        raise ShapeError("normalization needs at least one time step")
    steps = x.shape[1]
    inputs = [x, gamma, beta]
    keep = T.will_record(inputs)
    data = x.data.astype(np.result_type(x.data, gamma.data, beta.data), copy=False)

    mean = data.mean(axis=1, keepdims=True)
    xhat = data - mean
    squares = np.square(xhat)
    std = squares.mean(axis=1, keepdims=True)
    std += data.dtype.type(params.epsilon)
    np.sqrt(std, out=std)
    xhat /= std
    gamma3, beta3 = gamma.data[:, None], beta.data[:, None]
    # Only the backward reads xhat again, so without a tape it is scaled in place.
    out = squares if keep else xhat
    out3 = _per_variate(out, v)
    np.multiply(_per_variate(xhat, v), gamma3, out=out3)
    out3 += beta3

    def backward(g):
        g3, xhat3 = _per_variate(g, v), _per_variate(xhat, v)
        d_gamma = np.multiply(g3, xhat3).sum(axis=(1, 2))[:, None]
        d_beta = g3.sum(axis=(1, 2))[:, None]
        d_x = None
        if x.requires_grad:
            d_xhat = (g3 * gamma3).reshape(g.shape)
            d_x = d_xhat - d_xhat.mean(axis=1, keepdims=True)
            d_x -= xhat * np.multiply(d_xhat, xhat).mean(axis=1, keepdims=True)
            d_x /= std
        return [d_x, d_gamma, d_beta]

    stats = RevInStats(
        mean=T.custom_op(mean, [x], lambda g: [np.broadcast_to(g / steps, x.shape)]),
        std=T.custom_op(std, [x], lambda g: [xhat * (g / steps)]))
    return T.custom_op(out, inputs, backward), stats


def revin_denormalize(params: RevInParams, stats: RevInStats, y_norm, batch: int = 1):
    """Exact algebraic inverse of revin_normalize, as one engine op."""
    if np.abs(params.gamma.data).min() < 1e-12:
        raise ValueError("revin gamma too close to zero to invert")
    y_norm = T.as_tensor(y_norm)
    gamma, beta = params.gamma, params.beta
    v = gamma.shape[0]
    _check_variate_rows(y_norm, v, batch)
    inputs = [y_norm, gamma, beta, stats.mean, stats.std]
    keep = T.will_record(inputs)
    gamma3, beta3 = gamma.data[:, None], beta.data[:, None]
    std3 = _per_variate(stats.std.data, v)

    # ((y - beta) / gamma) * std + mean; u = (y - beta) / gamma is kept for
    # the backward, otherwise the output overwrites it.
    u = np.subtract(_per_variate(y_norm.data, v), beta3,
                    dtype=np.result_type(*(t.data for t in inputs)))
    u /= gamma3
    out = np.multiply(u, std3, out=None if keep else u)
    out += _per_variate(stats.mean.data, v)

    def backward(g):
        g3 = _per_variate(g, v)
        d_y = g3 * std3
        d_y /= gamma3
        d_gamma = -np.multiply(d_y, u).sum(axis=(1, 2))[:, None]
        d_beta = -d_y.sum(axis=(1, 2))[:, None]
        d_mean = g.sum(axis=1, keepdims=True) if stats.mean.requires_grad else None
        d_std = None
        if stats.std.requires_grad:
            d_std = np.multiply(g3, u).sum(axis=2).reshape(-1, 1)
        return [d_y.reshape(g.shape), d_gamma, d_beta, d_mean, d_std]

    return T.custom_op(out.reshape(y_norm.shape), inputs, backward)


def nlinear_forecast(weight: Tensor, bias: Tensor, x_norm) -> Tensor:
    """Shared linear forecaster: subtract each row's last value, apply the
    affine map, add the last value back; one engine op."""
    x_norm = T.as_tensor(x_norm)
    t_len = x_norm.shape[1]
    if weight.shape[1] != t_len:
        raise ShapeError(f"weight expects {weight.shape[1]} steps, got {t_len}")
    last = x_norm.data[:, t_len - 1:]
    centered = x_norm.data - last
    out = centered @ weight.data.T
    out += bias.data
    out += last

    def backward(g):
        d_x = None
        if x_norm.requires_grad:
            d_x = g @ weight.data
            # The last step also enters through the subtracted and re-added copy.
            d_x[:, -1] += g.sum(axis=1) - d_x.sum(axis=1)
        return [d_x, g.T @ centered, g.sum(axis=0, keepdims=True)]

    return T.custom_op(out, [x_norm, weight, bias], backward)


def up_project(weight: Tensor, bias: Tensor, rows) -> Tensor:
    """Shared affine map of each row to the embedding width; one engine op."""
    rows = T.as_tensor(rows)
    if weight.shape[1] != rows.shape[1]:
        raise ShapeError(
            f"up-projection expects width {weight.shape[1]}, got {rows.shape[1]}"
        )
    out = rows.data @ weight.data.T
    out += bias.data

    def backward(g):
        d_rows = g @ weight.data if rows.requires_grad else None
        return [d_rows, g.T @ rows.data, g.sum(axis=0, keepdims=True)]

    return T.custom_op(out, [rows, weight, bias], backward)


def pack_views(tokens: Tensor, eta: Tensor | None, batch: int, both_views: bool) -> Tensor:
    """The stack input, written in one engine op: the learned token ``eta``
    (when given) as token 0 of each of the B sequences, then the token-major
    rows [L*B, D].

    With ``both_views`` every row is followed by its feature-reversed copy,
    so the result [L*2B, D] holds both views as one batch of 2B, and the
    stack output read as [L*B, 2D] has each token's two views side by side.
    With one view and no learned token the rows are returned as they are."""
    rows, d = tokens.shape
    lead = batch if eta is not None else 0
    views = 2 if both_views else 1
    if lead == 0 and views == 1:
        return tokens
    inputs = [tokens] + ([eta] if eta is not None else [])
    packed = np.empty((lead + rows, views, d),
                      dtype=np.result_type(*(t.data for t in inputs)))
    rows_in = [(tokens.data, packed[lead:])]
    if eta is not None:
        rows_in.append((eta.data, packed[:lead]))
    for src, dst in rows_in:
        dst[:, 0] = src
        if views == 2:
            dst[:, 1] = src[:, ::-1]

    def backward(g):
        g3 = g.reshape(-1, views, d)
        d_rows = g3[:, 0] + g3[:, 1, ::-1] if views == 2 else g3[:, 0]
        grads = [d_rows[lead:]]
        if eta is not None:
            grads.append(d_rows[:lead].sum(axis=0, keepdims=True))
        return grads

    return T.custom_op(packed.reshape(-1, d), inputs, backward)


def reconcile_views(view_w: Tensor, view_b: Tensor, packed, skip: int = 0) -> Tensor:
    """Shared affine map over each token's two view outputs, side by side in
    ``packed`` [rows, 2D], after dropping its first ``skip`` rows (the
    learned token); one engine op.

    A [rows, D] input stands for both views being that one (mix_view off):
    it is mapped by the sum of the two halves of view_w."""
    packed = T.as_tensor(packed)
    rows, width = packed.shape
    full = view_w.shape[1]
    if width == full:
        w = view_w.data
    elif 2 * width == full:
        w = view_w.data[:, :width] + view_w.data[:, width:]
    else:
        raise ShapeError(f"reconciliation expects width {full}, got {width}")
    if not 0 <= skip <= rows:
        raise ShapeError(f"cannot drop {skip} of {rows} rows")
    y = packed.data[skip:]
    out = y @ w.T
    out += view_b.data

    def backward(g):
        d_w = g.T @ y
        if width != full:
            d_w = np.concatenate([d_w, d_w], axis=1)
        d_packed = None
        if packed.requires_grad:
            d_packed = np.empty(packed.shape, dtype=np.result_type(g, w))
            d_packed[:skip] = 0.0
            np.matmul(g, w, out=d_packed[skip:])
        return [d_packed, d_w, g.sum(axis=0, keepdims=True)]

    return T.custom_op(out, [packed, view_w, view_b], backward)


def _swap_token_axes(t: Tensor, batch: int) -> Tensor:
    """Rows [A*B, C] indexed (a, b) to rows [C*B, A] indexed (c, b): the
    token axis and the feature axis trade places around the batch axis.  The
    swap is its own inverse, and so its own backward.  The time axis uses it
    to turn v-major rows into step tokens and the step forecasts back."""
    def swap(a):
        outer = a.shape[0] // batch
        return np.ascontiguousarray(
            a.reshape(outer, batch, -1).transpose(2, 1, 0)).reshape(-1, outer)

    return T.custom_op(swap(t.data), [t], lambda g: [swap(g)])


def _refine_views(params: MixerParams, cfg: MixerConfig, tokens: Tensor,
                  eta: Tensor | None, batch: int, training: bool, rng,
                  stabilizer: slstm.StabilizerStats | None = None) -> Tensor:
    """Run the shared stack over token-major rows [L*B, D], behind the
    learned token ``eta`` when given, in both views.

    Returns the views side by side, [L'*B, 2D], where L' counts eta; with
    mix_view off the second view is the first one, so the reversed rows are
    never pushed through the stack and the result is [L'*B, D]."""
    packed = pack_views(tokens, eta, batch, cfg.mix_view)
    out = packed
    if cfg.slstm_axis != AXIS_NONE:
        views = 2 if cfg.mix_view else 1
        out = slstm._stack_tokens(cfg.block, params.blocks, packed, views * batch,
                                  training, rng, stabilizer)
    if cfg.mix_view:
        out = T.reshape(out, (out.shape[0] // 2, 2 * out.shape[1]))
    return out


def _forward_flat(params: MixerParams, cfg: MixerConfig, x_flat, batch: int,
                  training: bool, rng, want_trace: bool,
                  stabilizer: slstm.StabilizerStats | None = None):
    v, d = cfg.num_variates, cfg.embed_dim
    x_flat = T.as_tensor(x_flat)
    if x_flat.shape != (v * batch, cfg.lookback):
        raise ShapeError(
            f"expected input shape {(v * batch, cfg.lookback)}, got {x_flat.shape}"
        )
    time_axis = cfg.slstm_axis == AXIS_TIME

    x_norm, stats = revin_normalize(params.revin, x_flat, batch)
    if cfg.mix_time:
        x_initial = nlinear_forecast(params.nlinear_w, params.nlinear_b, x_norm)
    else:
        x_initial = x_norm

    # On the time axis the tokens are forecast steps: step-major [H*B, V].
    rows = _swap_token_axes(x_initial, batch) if time_axis else x_initial
    tokens = up_project(params.up_w, params.up_b, rows)
    eta = params.eta if cfg.init_token else None
    views = _refine_views(params, cfg, tokens, eta, batch, training, rng, stabilizer)

    # Dropping the learned token's rows leaves v-major [V*B, .] rows
    # (step-major [H*B, .] on the time axis).
    skip = batch if cfg.init_token else 0
    y_tok = reconcile_views(params.view_w, params.view_b, views, skip)
    y_norm_flat = _swap_token_axes(y_tok, batch) if time_axis else y_tok
    y_flat = revin_denormalize(params.revin, stats, y_norm_flat, batch)

    trace = None
    if want_trace:
        lead = [np.broadcast_to(eta.data, (batch, d))] if eta is not None else []
        x_up = np.concatenate(lead + [tokens.data])
        y_views = views.data[skip:]
        trace = ForwardTrace(
            x_norm=x_norm,
            x_initial=x_initial,
            x_up=T.as_tensor(x_up),
            x_up_reversed=T.as_tensor(x_up[:, ::-1]),
            y_prime=T.as_tensor(y_views[:, :d]),
            y_double_prime=T.as_tensor(y_views[:, -d:]),
            y_norm=y_norm_flat,
            y=y_flat,
        )
    return y_flat, trace


def mixer_forward(params: MixerParams, cfg: MixerConfig, x,
                  training: bool = False, rng=None):
    """Full pipeline on one [V, T] window; returns ([V, H] forecast, trace)."""
    x = T.as_tensor(x)
    if not np.isfinite(x.data).all():
        raise ValueError("input window contains non-finite values")
    y, trace = _forward_flat(params, cfg, x, 1, training, rng, want_trace=True)
    return y, trace


def forward_batch(params: MixerParams, cfg: MixerConfig, xs: np.ndarray,
                  training: bool = False, rng=None) -> Tensor:
    """Batched pipeline on [B, V, T]; returns the v-major [V*B, H] forecast."""
    if not np.isfinite(xs).all():
        raise ValueError("input windows contain non-finite values")
    b = xs.shape[0]
    flat = np.ascontiguousarray(xs.transpose(1, 0, 2).reshape(cfg.num_variates * b,
                                                              cfg.lookback))
    y, _ = _forward_flat(params, cfg, Tensor(flat, dtype=flat.dtype.type), b,
                         training, rng, want_trace=False)
    return y


def flatten_targets(ys: np.ndarray) -> np.ndarray:
    """[B, V, H] targets to the v-major [V*B, H] layout of forward_batch."""
    b = ys.shape[0]
    return np.ascontiguousarray(ys.transpose(1, 0, 2).reshape(-1, ys.shape[2]))


def decode_init_token(params: MixerParams, cfg: MixerConfig) -> Tensor:
    """Decode the learned initial token to its conditioning forecast [1, H]
    by running it alone through the stack in both views and reconciling."""
    if not cfg.init_token:
        raise ConfigError("model has no initial token to decode")
    if cfg.slstm_axis == AXIS_TIME:
        raise ConfigError("token decoding is defined for variate-order models")
    views = _refine_views(params, cfg, params.eta, None, 1, False, None)
    return reconcile_views(params.view_w, params.view_b, views)


# -- checkpoint io ----------------------------------------------------------

_SAFE_NAME = re.compile(r"^[A-Za-z0-9_.]+$")


def save_checkpoint(directory, params: MixerParams, extra: dict | None = None) -> None:
    """Write a manifest plus one little-endian binary file per parameter.

    The files go into a temporary sibling directory that then takes the
    place of ``directory``, so a failed save leaves any earlier checkpoint
    there whole."""
    directory = Path(directory)
    directory.parent.mkdir(parents=True, exist_ok=True)
    staging = directory.with_name(f".{directory.name}.{uuid.uuid4().hex}.tmp")
    staging.mkdir()
    try:
        _write_checkpoint(staging, params, extra)
        if directory.exists():
            # Renaming onto a non-empty directory fails, so the old one moves
            # aside first and is removed once the new one is in place.
            retired = staging.with_suffix(".old")
            directory.rename(retired)
            staging.rename(directory)
            shutil.rmtree(retired)
        else:
            staging.rename(directory)
    finally:
        if staging.exists():
            shutil.rmtree(staging)


def _write_checkpoint(directory: Path, params: MixerParams, extra: dict | None) -> None:
    cfg = params.config
    config_doc = {
        "lookback": cfg.lookback,
        "horizon": cfg.horizon,
        "num_variates": cfg.num_variates,
        "embed_dim": cfg.embed_dim,
        "num_blocks": cfg.num_blocks,
        "mix_time": cfg.mix_time,
        "slstm_axis": cfg.slstm_axis,
        "init_token": cfg.init_token,
        "mix_view": cfg.mix_view,
        "block": {
            "d_hidden": cfg.block.d_hidden,
            "num_heads": cfg.block.num_heads,
            "conv_width": cfg.block.conv_width,
            "dropout_rate": cfg.block.dropout_rate,
        },
        "extra": extra or {},
    }
    (directory / "config.json").write_text(json.dumps(config_doc, indent=2) + "\n")
    lines = []
    for name, tensor, _ in params.named_parameters():
        if not _SAFE_NAME.match(name):
            raise ValueError(f"parameter name {name!r} is not filesystem-safe")
        width = tensor.data.dtype.itemsize * 8
        shape = "x".join(str(s) for s in tensor.shape)
        lines.append(f"{name}\t{shape}\tfloat{width}")
        le = tensor.data.astype(f"<f{tensor.data.dtype.itemsize}", copy=False)
        le.tofile(directory / f"{name}.bin")
    (directory / "manifest.txt").write_text("\n".join(lines) + "\n")


def load_checkpoint(directory):
    """Rebuild (params, config) from a checkpoint directory, bit-exactly."""
    directory = Path(directory)
    config_doc = json.loads((directory / "config.json").read_text())
    block = BlockConfig(**config_doc["block"])
    cfg = MixerConfig(
        lookback=config_doc["lookback"],
        horizon=config_doc["horizon"],
        num_variates=config_doc["num_variates"],
        embed_dim=config_doc["embed_dim"],
        num_blocks=config_doc["num_blocks"],
        block=block,
        mix_time=config_doc["mix_time"],
        slstm_axis=config_doc["slstm_axis"],
        init_token=config_doc["init_token"],
        mix_view=config_doc["mix_view"],
    )
    entries = {}
    for line in (directory / "manifest.txt").read_text().splitlines():
        fields = line.split("\t")
        if len(fields) != 3 or fields[2] not in ("float32", "float64"):
            raise ValueError(f"malformed manifest line {line!r}")
        name, shape, kind = fields
        if not _SAFE_NAME.match(name):
            raise ValueError(f"manifest name {name!r} is not filesystem-safe")
        dims = tuple(int(s) for s in shape.split("x"))
        itemsize = int(kind.removeprefix("float")) // 8
        path = directory / f"{name}.bin"
        expected = int(np.prod(dims)) * itemsize
        if path.stat().st_size != expected:
            raise ValueError(f"{path.name} holds {path.stat().st_size} bytes, "
                             f"expected {expected} for {shape} {kind}")
        raw = np.fromfile(path, dtype=f"<f{itemsize}")
        entries[name] = raw.astype(f"f{itemsize}").reshape(dims)

    dtype = entries["up.weight"].dtype.type
    rng = np.random.default_rng(0)
    params = init_mixer_params(cfg, rng, dtype=dtype)
    for name, tensor, mask in params.named_parameters():
        if name not in entries:
            raise ValueError(f"checkpoint missing parameter {name}")
        loaded = entries[name]
        if loaded.shape != tensor.shape:
            raise ShapeError(
                f"checkpoint shape {loaded.shape} != expected {tensor.shape} for {name}"
            )
        if mask is not None and np.any(loaded[mask == 0]):
            # The recurrence multiplies head blocks only, so an off-block
            # entry would be silently ignored.
            raise ValueError(f"{name} has non-zero entries outside its head blocks")
        tensor.data = loaded
    return params, cfg, config_doc.get("extra", {})
