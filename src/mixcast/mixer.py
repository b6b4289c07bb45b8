"""Forecasting pipeline: reversible instance normalization, shared linear
time mixing, up-projection with a learned initial token, two-view recurrent
refinement, and view reconciliation.

The pipeline runs per instance on a [V, T] window and produces a [V, H]
forecast.  Internally everything is computed on a flat v-major matrix whose
rows are (variate, batch-item) pairs, so a whole mini-batch shares one tape;
the single-instance entry points are the B = 1 case of the same code.  These
rows are already the token-major layout the recurrent stack takes, and both
views run through the stack in one call as a batch of 2B.

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
    """Named intermediates of one forward pass (single instance)."""

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


def _tile_per_variate(column: Tensor, batch: int) -> Tensor:
    """[V,1] per-variate column -> [V*B,1] rows matching the v-major layout."""
    if batch == 1:
        return column
    idx = np.repeat(np.arange(column.shape[0]), batch)
    return T.take_rows(column, idx)


def revin_normalize(params: RevInParams, x, batch: int = 1):
    """Normalize rows to zero mean / unit variance, then scale by gamma and
    shift by beta.  Returns the normalized matrix and the stats for inversion."""
    x = T.as_tensor(x)
    if x.shape[1] < 1:
        raise ShapeError("normalization needs at least one time step")
    mean = x.mean(axis=1, keepdims=True)
    std = T.sqrt(x.var_pop(axis=1, keepdims=True) + params.epsilon)
    gamma = _tile_per_variate(params.gamma, batch)
    beta = _tile_per_variate(params.beta, batch)
    x_norm = gamma * ((x - mean) / std) + beta
    return x_norm, RevInStats(mean=mean, std=std)


def revin_denormalize(params: RevInParams, stats: RevInStats, y_norm, batch: int = 1):
    """Exact algebraic inverse of revin_normalize."""
    if np.abs(params.gamma.data).min() < 1e-12:
        raise ValueError("revin gamma too close to zero to invert")
    y_norm = T.as_tensor(y_norm)
    gamma = _tile_per_variate(params.gamma, batch)
    beta = _tile_per_variate(params.beta, batch)
    return ((y_norm - beta) / gamma) * stats.std + stats.mean


def nlinear_forecast(weight: Tensor, bias: Tensor, x_norm) -> Tensor:
    """Shared linear forecaster: subtract each row's last value, apply the
    affine map, add the last value back."""
    x_norm = T.as_tensor(x_norm)
    t_len = x_norm.shape[1]
    if weight.shape[1] != t_len:
        raise ShapeError(f"weight expects {weight.shape[1]} steps, got {t_len}")
    last = T.slice_axis(x_norm, 1, t_len - 1, t_len)
    out = T.matmul(x_norm - last, T.transpose(weight)) + bias
    return out + last


def up_project(weight: Tensor, bias: Tensor, rows) -> Tensor:
    rows = T.as_tensor(rows)
    if weight.shape[1] != rows.shape[1]:
        raise ShapeError(
            f"up-projection expects width {weight.shape[1]}, got {rows.shape[1]}"
        )
    return T.matmul(rows, T.transpose(weight)) + bias


def up_project_and_prepend(params: MixerParams, x_initial, cfg: MixerConfig) -> Tensor:
    """Map each variate row to the embedding width and, when configured,
    prepend the learned initial token as token 0."""
    tokens = up_project(params.up_w, params.up_b, x_initial)
    if cfg.init_token:
        tokens = T.concat([params.eta, tokens], axis=0)
    return tokens


def reverse_latent_view(tokens) -> Tensor:
    """Flip each token's feature dimensions; token order is unchanged."""
    return T.reverse(T.as_tensor(tokens), axis=1)


def reconcile_views(view_w: Tensor, view_b: Tensor, y_prime, y_double_prime) -> Tensor:
    """Shared affine map over the concatenated per-token forecasts."""
    y_prime = T.as_tensor(y_prime)
    y_double_prime = T.as_tensor(y_double_prime)
    if y_prime.shape != y_double_prime.shape:
        raise ShapeError(
            f"view shapes differ: {y_prime.shape} vs {y_double_prime.shape}"
        )
    cat = T.concat([y_prime, y_double_prime], axis=1)
    if view_w.shape[1] != cat.shape[1]:
        raise ShapeError(
            f"reconciliation expects width {view_w.shape[1]}, got {cat.shape[1]}"
        )
    return T.matmul(cat, T.transpose(view_w)) + view_b


def _swap_row_axes(t: Tensor, outer: int, inner: int) -> Tensor:
    """Reorder rows indexed (a, b), a < outer, b < inner, to (b, a)."""
    order = np.arange(outer * inner).reshape(outer, inner).T.reshape(-1)
    return T.take_rows(t, order)


def _make_tokens(params: MixerParams, cfg: MixerConfig, x_initial: Tensor,
                 batch: int) -> Tensor:
    """Token-major [L*B, D] rows fed to the recurrent stack: up-projected
    variate rows (or forecast steps for the time axis), with the learned
    token prepended as token 0."""
    if cfg.slstm_axis == AXIS_TIME:
        # v-major [V*B, H] -> step-major [H*B, V]: each step is a token.
        v, steps = cfg.num_variates, x_initial.shape[1]
        by_step = T.transpose(T.reshape(x_initial, (v, batch * steps)))
        x_initial = _swap_row_axes(by_step, batch, steps)
    tokens = up_project(params.up_w, params.up_b, x_initial)
    if cfg.init_token:
        eta_tok = params.eta if batch == 1 else T.take_rows(params.eta, [0] * batch)
        tokens = T.concat([eta_tok, tokens], axis=0)
    return tokens


def _refine_views(params: MixerParams, cfg: MixerConfig, tokens: Tensor, batch: int,
                  training: bool, rng, stabilizer: slstm.StabilizerStats | None = None):
    """Run the shared stack on the forward and feature-reversed views of
    token-major rows [L*B, D]; returns both [L*B, D] outputs and the reversed
    tokens.

    Both views go through the stack in one call as a batch of 2B: per token,
    each forward row is followed by its reversed row.  With mix_view off the
    second view is the first one duplicated, so the reversed rows are never
    pushed through the stack."""
    rev = reverse_latent_view(tokens)
    if cfg.slstm_axis == AXIS_NONE:
        return tokens, (rev if cfg.mix_view else tokens), rev
    if not cfg.mix_view:
        out = slstm._stack_tokens(cfg.block, params.blocks, tokens, batch,
                                  training, rng, stabilizer)
        return out, out, rev
    rows, d = tokens.shape
    both = T.reshape(T.concat([tokens, rev], axis=1), (2 * rows, d))
    out = slstm._stack_tokens(cfg.block, params.blocks, both, 2 * batch,
                              training, rng, stabilizer)
    out = T.reshape(out, (rows, 2 * d))
    return T.slice_axis(out, 1, 0, d), T.slice_axis(out, 1, d, 2 * d), rev


def _forward_flat(params: MixerParams, cfg: MixerConfig, x_flat, batch: int,
                  training: bool, rng, want_trace: bool,
                  stabilizer: slstm.StabilizerStats | None = None):
    v = cfg.num_variates
    x_flat = T.as_tensor(x_flat)
    if x_flat.shape != (v * batch, cfg.lookback):
        raise ShapeError(
            f"expected input shape {(v * batch, cfg.lookback)}, got {x_flat.shape}"
        )

    x_norm, stats = revin_normalize(params.revin, x_flat, batch)
    if cfg.mix_time:
        x_initial = nlinear_forecast(params.nlinear_w, params.nlinear_b, x_norm)
    else:
        x_initial = x_norm

    tokens = _make_tokens(params, cfg, x_initial, batch)
    out_f, out_r, rev_tokens = _refine_views(params, cfg, tokens, batch, training, rng,
                                             stabilizer)

    # Drop the initial token's rows; what is left is v-major [V*B, D]
    # (step-major [H*B, D] on the time axis).
    skip = batch if cfg.init_token else 0
    rows = tokens.shape[0]
    y_prime = T.slice_axis(out_f, 0, skip, rows)
    y_dprime = y_prime if out_r is out_f else T.slice_axis(out_r, 0, skip, rows)
    y_tok = reconcile_views(params.view_w, params.view_b, y_prime, y_dprime)

    if cfg.slstm_axis == AXIS_TIME:
        # y_tok rows are steps: [H*B, V]; fold back to v-major [V*B, H].
        by_batch = _swap_row_axes(y_tok, cfg.horizon, batch)
        y_norm_flat = T.reshape(T.transpose(by_batch), (v * batch, cfg.horizon))
    else:
        y_norm_flat = y_tok

    y_flat = revin_denormalize(params.revin, stats, y_norm_flat, batch)

    trace = None
    if want_trace:
        trace = ForwardTrace(
            x_norm=x_norm,
            x_initial=x_initial,
            x_up=tokens,
            x_up_reversed=rev_tokens,
            y_prime=y_prime,
            y_double_prime=y_dprime,
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
    fwd, rev, _ = _refine_views(params, cfg, params.eta, 1, False, None)
    return reconcile_views(params.view_w, params.view_b, fwd, rev)


# -- checkpoint io ----------------------------------------------------------

_SAFE_NAME = re.compile(r"^[A-Za-z0-9_.]+$")


def save_checkpoint(directory, params: MixerParams, extra: dict | None = None) -> None:
    """Write a manifest plus one little-endian binary file per parameter."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
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
        tensor.data = loaded
    return params, cfg, config_doc.get("extra", {})
