"""Forecasting pipeline: reversible instance normalization, shared linear
time mixing, up-projection with a learned initial token, two-view recurrent
refinement, and view reconciliation.

The pipeline runs per instance on a [V, T] window and produces a [V, H]
forecast.  ``forward_batch`` is its one entry point: it takes a [B, V, T]
array of windows, checked against the model's V and T before anything else
reads it, and a single window is the batch ``x[None]``.  Internally
everything is computed on a flat v-major matrix whose rows are (variate,
batch-item) pairs, so a whole mini-batch shares one tape.  These rows are
already the token-major layout the recurrent stack takes.  They stay inside
the pipeline: the RevIN inverse hands the forecast back in the windows'
layout, [B, V, H], as a view of its v-major result.  The windows are
data: RevIN's gradients reach its ``gamma`` and ``beta``, not the input, and
its per-row statistics are plain arrays.

Each stage (RevIN, the linear forecaster, the up-projection, the packing of
the stack input, reconciliation, and the RevIN inverse) is one engine op
computed on numpy arrays with a hand-written backward, and keeps the arrays
its backward needs only while a tape records it.  A stage writes only arrays
it allocates, never its inputs, with or without a tape.  Every reduction a
backward makes (a bias gradient's column sum, NLinear's row sums, RevIN's
per-variate sums) is one ``einsum`` pass.  The packing op
writes the learned token's rows, the forward rows and the feature-reversed
rows straight into one interleaved [L*2B, D] matrix, so both views run
through the stack in one call as a batch of 2B.  Reconciliation, given the
same ``mix_view`` switch, reads the stack output as [L*B, 2D] (a view, not a
copy), each token's two view outputs side by side.  Each stage takes the Tensors the
stage before it returns, and the parameters take their dtype from
:func:`mixcast.tensor.precision`.

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
from dataclasses import asdict, dataclass, field, fields, replace
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
    """Raised for an inconsistent pipeline config, or one its parameters do not carry."""


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
        # The third item is always None; callers unpack (name, tensor, _).
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


def init_mixer_params(cfg: MixerConfig, rng) -> MixerParams:
    """Draw all pipeline weights in the dtype of :func:`mixcast.tensor.precision`;
    the rng stream order is fixed for determinism."""
    v, t_len, h_len, d = cfg.num_variates, cfg.lookback, cfg.horizon, cfg.embed_dim

    def uniform(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return Tensor(rng.uniform(-bound, bound, size=shape))

    revin = RevInParams(gamma=Tensor(np.ones((v, 1))), beta=Tensor(np.zeros((v, 1))))
    nlinear_w = nlinear_b = None
    if cfg.mix_time:
        nlinear_w = uniform((h_len, t_len), t_len)
        nlinear_b = Tensor(np.zeros((1, h_len)))
    up_w = uniform((d, cfg.up_in_dim), cfg.up_in_dim)
    up_b = Tensor(np.zeros((1, d)))
    eta = uniform((1, d), d) if cfg.init_token else None
    blocks = []
    if cfg.slstm_axis != AXIS_NONE:
        blocks = [slstm.init_block_weights(cfg.block, rng) for _ in range(cfg.num_blocks)]
    view_w = uniform((cfg.view_out_dim, 2 * d), 2 * d)
    view_b = Tensor(np.zeros((1, cfg.view_out_dim)))
    return MixerParams(config=cfg, revin=revin, nlinear_w=nlinear_w, nlinear_b=nlinear_b,
                       up_w=up_w, up_b=up_b, eta=eta, blocks=blocks,
                       view_w=view_w, view_b=view_b)


def count_parameters(params: MixerParams) -> int:
    """Total scalar parameters."""
    return sum(t.size for _, t, _ in params.named_parameters())


def _per_variate(a: np.ndarray, variates: int) -> np.ndarray:
    """v-major rows [V*B, W] viewed as [V, B, W], so that a per-variate
    column [V, 1] broadcasts as [V, 1, 1]."""
    return a.reshape(variates, -1, a.shape[1])


def _check_variate_rows(a: np.ndarray, variates: int, batch: int) -> None:
    if a.ndim != 2 or a.shape[0] != variates * batch:
        raise ShapeError(f"expected {variates * batch} v-major rows for {variates} "
                         f"variates and batch {batch}, got shape {a.shape}")


def revin_normalize(params: RevInParams, x: np.ndarray, batch: int = 1):
    """Normalize rows to zero mean / unit variance, then scale by gamma and
    shift by beta.  Returns the normalized matrix and the per-row (mean, std)
    arrays [rows, 1] for inversion.

    The normalization is one engine op; the input is data, so gradients
    reach gamma and beta only, each one einsum pass over its variate's
    rows."""
    gamma, beta = params.gamma, params.beta
    v = gamma.shape[0]
    _check_variate_rows(x, v, batch)
    if x.shape[1] < 1:
        raise ShapeError("normalization needs at least one time step")
    data = x.astype(np.result_type(x, gamma.data, beta.data), copy=False)

    # One einsum pass for each row statistic, whose result for a row does
    # not depend on the rows beside it (slstm.row_moments): a streamed chunk
    # normalizes its rows as a whole-batch forward does.
    xhat, out = np.empty_like(data), np.empty_like(data)
    mean, std = (np.empty((data.shape[0], 1), data.dtype) for _ in range(2))
    slstm.row_moments(data, xhat, mean, std)
    std += data.dtype.type(REVIN_EPS)
    np.sqrt(std, out=std)
    xhat /= std
    # The backward reads xhat.
    out3 = _per_variate(out, v)
    np.multiply(_per_variate(xhat, v), gamma.data[:, None], out=out3)
    out3 += beta.data[:, None]

    def backward(g):
        g3 = _per_variate(g, v)
        d_gamma = np.einsum("vbt,vbt->v", g3, _per_variate(xhat, v))[:, None]
        return [d_gamma, np.einsum("vbt->v", g3)[:, None]]

    return T.custom_op(out, [gamma, beta], backward), (mean, std)


def revin_denormalize(params: RevInParams, stats: tuple[np.ndarray, np.ndarray],
                      y_norm: Tensor, batch: int = 1):
    """Exact algebraic inverse of revin_normalize given its (mean, std), as
    one engine op; the statistics are data.  The v-major rows [V*B, W] come
    back in the windows' layout [B, V, W]: a transposed view of the v-major
    result, not a copy."""
    if np.abs(params.gamma.data).min() < 1e-12:
        raise ValueError("revin gamma too close to zero to invert")
    gamma, beta = params.gamma, params.beta
    v = gamma.shape[0]
    _check_variate_rows(y_norm.data, v, batch)
    mean, std = stats
    inputs = [y_norm, gamma, beta]
    gamma3 = gamma.data[:, None]
    std3 = _per_variate(std, v)
    shape = y_norm.shape

    # ((y - beta) / gamma) * std + mean; u = (y - beta) / gamma is kept for
    # the backward.
    u = np.subtract(_per_variate(y_norm.data, v), beta.data[:, None],
                    dtype=np.result_type(mean, std, *(t.data for t in inputs)))
    u /= gamma3
    result = np.multiply(u, std3)
    result += _per_variate(mean, v)

    def backward(g):
        d_y = np.multiply(g.transpose(1, 0, 2), std3, order="C")
        d_y /= gamma3
        d_gamma = -np.einsum("vbt,vbt->v", d_y, u)[:, None]
        d_beta = -np.einsum("vbt->v", d_y)[:, None]
        return [d_y.reshape(shape), d_gamma, d_beta]

    return T.custom_op(result.transpose(1, 0, 2), inputs, backward)


def nlinear_forecast(weight: Tensor, bias: Tensor, x_norm: Tensor) -> Tensor:
    """Shared linear forecaster: subtract each row's last value, apply the
    affine map, add the last value back; one engine op."""
    t_len = x_norm.shape[1]
    if weight.shape[1] != t_len:
        raise ShapeError(f"weight expects {weight.shape[1]} steps, got {t_len}")
    w = weight.data
    last = x_norm.data[:, t_len - 1:]
    centered = x_norm.data - last
    out = centered @ w.T
    out += bias.data
    out += last

    def backward(g):
        d_x = g @ w
        # The last step also enters through the subtracted and re-added copy.
        d_x[:, -1] += np.einsum("ij->i", g) - np.einsum("ij->i", d_x)
        return [d_x, g.T @ centered, np.einsum("ij->j", g)[None]]

    return T.custom_op(out, [x_norm, weight, bias], backward)


def up_project(weight: Tensor, bias: Tensor, rows: Tensor) -> Tensor:
    """Shared affine map of each row to the embedding width; one engine op."""
    if weight.shape[1] != rows.shape[1]:
        raise ShapeError(
            f"up-projection expects width {weight.shape[1]}, got {rows.shape[1]}"
        )
    x, w = rows.data, weight.data
    out = x @ w.T
    out += bias.data

    def backward(g):
        return [g @ w, g.T @ x, np.einsum("ij->j", g)[None]]

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
        if lead:
            grads.append(np.einsum("ij->j", d_rows[:lead])[None])
        return grads

    return T.custom_op(packed.reshape(-1, d), inputs, backward)


def reconcile_views(view_w: Tensor, view_b: Tensor, stack_out: Tensor, both_views: bool,
                    skip: int = 0) -> Tensor:
    """Shared affine map over each token's two view outputs, after dropping
    the first ``skip`` of them (the learned token); one engine op.

    With ``both_views`` the rows of ``stack_out`` [2R, D] are the pairs that
    :func:`pack_views` interleaves, read as [R, 2D] (a view, not a copy) with
    each token's two views side by side.  Without it ``stack_out`` [R, D] is
    the one view standing for both (mix_view off), mapped by the sum of the
    two halves of view_w."""
    views, d = (2 if both_views else 1), view_w.shape[1] // 2
    if stack_out.shape[1] != d or stack_out.shape[0] % views:
        raise ShapeError(f"reconciliation expects {views}-view rows of width {d}, "
                         f"got shape {stack_out.shape}")
    tokens = stack_out.data.reshape(-1, views * d)
    if not 0 <= skip <= tokens.shape[0]:
        raise ShapeError(f"cannot drop {skip} of {tokens.shape[0]} tokens")
    w = view_w.data if both_views else view_w.data[:, :d] + view_w.data[:, d:]
    y, shape = tokens[skip:], stack_out.shape
    out = y @ w.T
    out += view_b.data

    def backward(g):
        d_w = g.T @ y
        if not both_views:
            d_w = np.concatenate([d_w, d_w], axis=1)
        d_out = np.empty(shape, dtype=np.result_type(g, w))
        d_tokens = d_out.reshape(-1, views * d)
        d_tokens[:skip] = 0.0
        np.matmul(g, w, out=d_tokens[skip:])
        return [d_out, d_w, np.einsum("ij->j", g)[None]]

    return T.custom_op(out, [stack_out, view_w, view_b], backward)


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


def forecast_dtype(params: MixerParams, xs: np.ndarray) -> np.dtype:
    """The dtype every stage of forward_batch computes in, for windows xs."""
    return np.result_type(xs, *(t.data for _, t, _ in params.named_parameters()))


def _variate_rows(revin: RevInParams, lo: int, hi: int) -> RevInParams:
    """The RevIN parameters of variates lo..hi: constants, which a chunk
    no tape records reads."""
    if (lo, hi) == (0, revin.gamma.shape[0]):
        return revin
    return RevInParams(*(Tensor(t.data[lo:hi], dtype=t.data.dtype.type)
                         for t in (revin.gamma, revin.beta)))


def forward_batch(params: MixerParams, xs: np.ndarray, *, training: bool = False, rng=None,
                  stabilizer: slstm.StabilizerStats | None = None,
                  scratch: slstm.Scratch | None = None,
                  out: np.ndarray | None = None) -> Tensor:
    """The pipeline of ``params.config`` on a [B, V, T] array of windows;
    returns the [B, V, H] forecast, with or without a tape.  Given ``out``, a
    [B, V, H] array of :func:`forecast_dtype`, the forecast is written there
    instead and returned as a Tensor of ``out``.

    Token v is rows v*B .. (v+1)*B, so a run of whole variate tokens can pass
    through every stage on its own: the forward runs chunk by chunk, as many
    tokens as fit in slstm.CHUNK_ROWS stack rows (at least one), and the
    first chunk also holds the learned token.  Each chunk goes through
    every stage in turn: gathered from xs into v-major rows, RevIN, NLinear,
    the up-projection, packing, every block (each carrying its recurrence
    state and conv tail on to the next chunk), reconciliation, and the RevIN
    inverse, whose output (a [B, V, H] view of its v-major rows) is copied
    into the chunk's place in the forecast.  Every stage and block writes a
    fresh chunk-sized array and only reads its inputs.  When the first chunk
    reaches the stack, one call builds the ``slstm.Stream`` that owns the
    run, with ``rng`` and ``stabilizer``, carving its buffers from
    ``scratch`` (which grows to the largest carve it serves) or a fresh
    arena; the forecast never shares memory with it.

    A forward that records a tape, or draws dropout, is the same loop run
    as one chunk of all the variates: its stages keep the whole-batch arrays
    their backwards read, and the blocks draw their masks in the order of
    an unchunked stack.  So does the time axis, whose step tokens each need
    every variate.  Under a tape that chunk's inverse is the forecast, and no
    other array is made for it, and the carved buffers are the blocks'
    history: ``scratch`` must not be carved again before the backward has
    run."""
    cfg = params.config
    v, t_len, h_len = cfg.num_variates, cfg.lookback, cfg.horizon
    if xs.ndim != 3 or xs.shape[1:] != (v, t_len):
        got = (f"{xs.shape[1]} variates and lookback {xs.shape[2]}" if xs.ndim == 3
               else f"shape {xs.shape}")
        raise ShapeError(f"the model takes windows of {v} variates and lookback {t_len}, "
                         f"got {got}")
    batch = xs.shape[0]
    if not batch:
        raise ShapeError("the model takes a batch of at least one window, got an empty batch")
    time_axis = cfg.slstm_axis == AXIS_TIME
    record = T.will_record()
    if record and out is not None:
        raise ValueError("a forward that records a tape takes no out array")
    dtype = forecast_dtype(params, xs)
    if out is not None and (out.shape != (batch, v, h_len) or out.dtype != dtype):
        raise ShapeError(f"out must be {dtype} of shape {(batch, v, h_len)}, "
                         f"got {out.dtype} of shape {out.shape}")
    eta = params.eta if cfg.init_token else None
    lead, per_token = int(eta is not None), (2 if cfg.mix_view else 1) * batch
    dropout = training and cfg.block.dropout_rate > 0.0 and bool(params.blocks)
    if dropout and rng is None:
        raise ValueError("training with dropout needs an rng")
    step = v
    if not (record or dropout or time_axis):
        step = min(v, max(1, slstm.CHUNK_ROWS // per_token))
    if out is None and not record:
        out = np.empty((batch, v, h_len), dtype)
    stream = None
    for lo in range(0, v, step):
        hi = min(lo + step, v)
        first = lo == 0
        rows = np.ascontiguousarray(xs[:, lo:hi].transpose(1, 0, 2)).reshape(-1, t_len)
        if not np.isfinite(rows).all():
            raise ValueError("input windows contain non-finite values")
        # Each stage's output takes the place of its input in `rows`, so the
        # input is dropped once read; a tape keeps what its backward reads.
        revin = _variate_rows(params.revin, lo, hi)
        rows, stats = revin_normalize(revin, rows, batch)
        if cfg.mix_time:
            rows = nlinear_forecast(params.nlinear_w, params.nlinear_b, rows)
        # On the time axis the tokens are forecast steps: step-major [H*B, V].
        if time_axis:
            rows = _swap_token_axes(rows, batch)
        rows = up_project(params.up_w, params.up_b, rows)
        if first and params.blocks:
            # Carved here, not before the loop, so that it is not alive
            # beside the first chunk's earlier stages; the stream's state
            # then carries on to the next chunk.
            tokens = h_len if time_axis else v
            stream = slstm.Stream(cfg.block, params.blocks, per_token, (lead + tokens) * per_token,
                                  (lead + (tokens if time_axis else step)) * per_token,
                                  scratch or slstm.Scratch(), dtype, rng if dropout else None,
                                  stabilizer)
        rows = pack_views(rows, eta if first else None, batch, cfg.mix_view)
        if params.blocks:
            rows = slstm._stack_tokens(stream, rows)
        if hi == v:
            stream = None  # the stack is done; so is an arena made for this call
        # Dropping the learned token's rows leaves v-major [V*B, .] rows
        # (step-major [H*B, .] on the time axis).
        rows = reconcile_views(params.view_w, params.view_b, rows, cfg.mix_view,
                               batch if lead and first else 0)
        if time_axis:
            rows = _swap_token_axes(rows, batch)
        y = revin_denormalize(revin, stats, rows, batch)
        if not record:
            np.copyto(out[:, lo:hi], y.data)
    return y if record else Tensor(out, dtype=dtype.type)


def decode_init_token(params: MixerParams) -> Tensor:
    """Decode the learned initial token to its conditioning forecast [1, H]:
    it runs alone through the stack in the views of ``params.config``, in a
    stream that records when a tape is active, and the views are reconciled."""
    cfg = params.config
    if not cfg.init_token:
        raise ConfigError("model has no initial token to decode")
    if cfg.slstm_axis == AXIS_TIME:
        raise ConfigError("token decoding is defined for variate-order models")
    views = pack_views(params.eta, None, 1, cfg.mix_view)  # one token of a batch of views
    if params.blocks:
        rows = views.shape[0]
        stream = slstm.Stream(cfg.block, params.blocks, rows, rows, rows, slstm.Scratch(),
                              forecast_dtype(params, views.data))
        views = slstm._stack_tokens(stream, views)
    return reconcile_views(params.view_w, params.view_b, views, cfg.mix_view)


# -- checkpoint io ----------------------------------------------------------

_SAFE_NAME = re.compile(r"^[A-Za-z0-9_.]+$")


def save_checkpoint(directory, params: MixerParams, extra: dict | None = None) -> None:
    """Write a manifest plus one little-endian binary file per parameter.

    The files go into a temporary sibling directory that then takes the
    place of ``directory``, so a failed save leaves any earlier checkpoint
    there whole.  A process killed between the two renames leaves it in a
    ``.old`` sibling instead, which :func:`load_checkpoint` then names.

    Once the new checkpoint is in place, the ``.tmp`` and ``.old`` siblings
    that killed saves of ``directory`` left are removed.  This assumes one
    writer per checkpoint directory, as ``fit`` and the CLI keep: a second
    process saving the same directory at once could lose its staging one."""
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
            try:
                staging.rename(directory)
            except BaseException:
                retired.rename(directory)
                raise
            shutil.rmtree(retired)
        else:
            staging.rename(directory)
        for stale in _save_siblings(directory, "tmp|old"):
            shutil.rmtree(stale)
    finally:
        if staging.exists():
            shutil.rmtree(staging)


def _save_siblings(directory: Path, suffixes: str) -> list[str]:
    """The ``.{name}.<32 hex>.<suffix>`` siblings that saves of directory
    make, for any of the ``|``-separated suffixes."""
    pattern = re.compile(rf"\.{re.escape(directory.name)}\.[0-9a-f]{{32}}\.(?:{suffixes})")
    return sorted(str(p) for p in directory.parent.glob(".*") if pattern.fullmatch(p.name))


def _write_checkpoint(directory: Path, params: MixerParams, extra: dict | None) -> None:
    # The block goes last, where earlier checkpoints hold it, so the same
    # config writes the same bytes.
    config_doc = asdict(params.config)
    config_doc["block"] = config_doc.pop("block")
    config_doc["extra"] = extra or {}
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


# The JSON value types each annotated config field accepts; a bool is not an
# int here, though Python counts it as one.
_JSON_TYPES = {"int": (int,), "bool": (bool,), "str": (str,), "float": (int, float)}


def _config_args(doc: dict, cls, where: str, optional=()) -> dict:
    """The entries of a config.json mapping as keyword arguments of the
    dataclass cls; a missing or unknown key, or a value of the wrong type, is
    rejected by name."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} is not a mapping")
    names = [f.name for f in fields(cls)]
    missing = [key for key in names if key not in doc]
    unknown = [key for key in doc if key not in names and key not in optional]
    if missing or unknown:
        raise ValueError(f"{where}: missing keys {missing}, unknown keys {unknown}")
    for f in fields(cls):
        kinds = _JSON_TYPES.get(f.type)
        value = doc[f.name]
        if kinds and (not isinstance(value, kinds)
                      or (isinstance(value, bool) and f.type != "bool")):
            raise ValueError(f"{where}: {f.name} must be {f.type}, got {value!r}")
    return {key: doc[key] for key in names}


def load_checkpoint(directory):
    """Rebuild (params, config, extra) from a checkpoint directory, bit-exactly.

    Recurrent matrices stored densely [D, D] load as their head blocks.  A
    config.json that lacks or adds a key (``extra`` is optional, and a
    mapping), or a manifest that repeats, lacks or adds a parameter, mixes
    float widths, or points at non-finite values is rejected."""
    directory = Path(directory)
    retired = [] if directory.exists() else _save_siblings(directory, "old")
    if retired:
        raise FileNotFoundError(f"no checkpoint at {directory}: a save stopped between its "
                                f"two renames, leaving the last one in {', '.join(retired)}")
    config_doc = json.loads((directory / "config.json").read_text())
    args = _config_args(config_doc, MixerConfig, "config.json", optional=("extra",))
    extra = config_doc.get("extra", {})
    if not isinstance(extra, dict):
        raise ValueError(f"config.json: extra is not a mapping, got {extra!r}")
    block = BlockConfig(**_config_args(args["block"], BlockConfig, "config.json block"))
    cfg = MixerConfig(**{**args, "block": block})
    entries = {}
    width = None
    for line in (directory / "manifest.txt").read_text().splitlines():
        if not re.fullmatch(r"[^\t]*\t[0-9]+(x[0-9]+)*\tfloat(32|64)", line):
            raise ValueError(f"malformed manifest line {line!r}")
        name, shape, kind = line.split("\t")
        if not _SAFE_NAME.match(name):
            raise ValueError(f"manifest name {name!r} is not filesystem-safe")
        if name in entries:
            raise ValueError(f"manifest lists parameter {name} twice")
        width = width or kind
        if kind != width:
            raise ValueError(f"parameter {name} is {kind}, the entries before it {width}")
        dims = tuple(int(s) for s in shape.split("x"))
        itemsize = int(kind.removeprefix("float")) // 8
        path = directory / f"{name}.bin"
        expected = int(np.prod(dims)) * itemsize
        if path.stat().st_size != expected:
            raise ValueError(f"{path.name} holds {path.stat().st_size} bytes, "
                             f"expected {expected} for {shape} {kind}")
        raw = np.fromfile(path, dtype=f"<f{itemsize}")
        if not np.isfinite(raw).all():
            raise ValueError(f"{path.name}: parameter {name} holds non-finite values")
        entries[name] = raw.astype(f"f{itemsize}").reshape(dims)

    # Every slot the init draws is replaced by its stored array below.
    params = init_mixer_params(cfg, np.random.default_rng(0))
    dense = (block.d_hidden, block.d_hidden)
    for name, tensor, _ in params.named_parameters():
        loaded = entries.pop(name, None)
        if loaded is None:
            raise ValueError(f"checkpoint missing parameter {name}")
        if tensor.data.ndim == 3 and loaded.shape == dense:
            # A recurrent matrix in the older dense layout: only its head
            # blocks may be non-zero.
            blocks = slstm.diagonal_blocks(loaded, block.num_heads)
            if np.count_nonzero(blocks) != np.count_nonzero(loaded):
                raise ValueError(f"{name}.bin has non-zero entries outside its head blocks")
            loaded = blocks
        if loaded.shape != tensor.shape:
            raise ShapeError(
                f"checkpoint shape {loaded.shape} != expected {tensor.shape} for {name}"
            )
        tensor.data = loaded
    if entries:
        raise ValueError("checkpoint holds parameters the config has no slot for: "
                         + ", ".join(entries))
    return params, cfg, extra
