"""Stabilized exponential-gated recurrent cell, residual blocks, and stacks.

The cell keeps four running states: cell ``c``, normalizer ``n``, hidden
``h``, and stabilizer ``m``.  Input and forget gates are exponential; the
stabilizer is the running max of their pre-activations and is subtracted
inside the exponentials so the hidden output is computed without overflow
while staying mathematically unchanged.

Sequences are flat token-major matrices: ``B`` independent sequences of ``L``
tokens form ``[L*B, D]`` rows, token ``t`` in rows ``t*B .. (t+1)*B``.  The
recurrence over a whole sequence is one engine op with a hand-written
backpropagation-through-time backward: the input products of all four gates
are one matmul hoisted out of the time loop, and the four recurrent matrices
are concatenated so each step makes one recurrent matmul.  The other block
stages (layer norm, causal convolution, projection, dropout, residual) run
once on the whole matrix.

Recurrent weight matrices are block-diagonal over heads: they are stored
densely together with a binary mask, and the optimizer re-applies the mask
after every update so off-block entries stay exactly zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor

LN_EPS = 1e-5


@dataclass
class BlockConfig:
    """Width and regularization switches of one recurrent block."""

    d_hidden: int
    num_heads: int = 1
    conv_width: int = 0  # 0 disables the causal convolution; else 2 or 4
    dropout_rate: float = 0.0

    def __post_init__(self):
        if self.d_hidden <= 0 or self.num_heads <= 0:
            raise ValueError("d_hidden and num_heads must be positive")
        if self.d_hidden % self.num_heads != 0:
            raise ValueError(
                f"d_hidden {self.d_hidden} not divisible by num_heads {self.num_heads}"
            )
        if self.conv_width not in (0, 2, 4):
            raise ValueError(f"conv_width must be 0, 2, or 4, got {self.conv_width}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must lie in [0,1), got {self.dropout_rate}")


def head_mask(d_hidden: int, num_heads: int) -> np.ndarray:
    """Binary [D,D] mask that is 1 inside each head's diagonal block."""
    width = d_hidden // num_heads
    mask = np.zeros((d_hidden, d_hidden), dtype=np.float64)
    for k in range(num_heads):
        lo, hi = k * width, (k + 1) * width
        mask[lo:hi, lo:hi] = 1.0
    return mask


@dataclass
class SLstmParams:
    """Input weights W_*, block-diagonal recurrent weights R_*, biases b_*."""

    w_z: Tensor
    w_i: Tensor
    w_f: Tensor
    w_o: Tensor
    r_z: Tensor
    r_i: Tensor
    r_f: Tensor
    r_o: Tensor
    b_z: Tensor
    b_i: Tensor
    b_f: Tensor
    b_o: Tensor
    num_heads: int = 1
    mask: np.ndarray = field(default=None, repr=False)

    @property
    def d_hidden(self) -> int:
        return self.w_z.shape[0]

    @property
    def d_in(self) -> int:
        return self.w_z.shape[1]

    def named_parameters(self, prefix: str = ""):
        for name in ("w_z", "w_i", "w_f", "w_o"):
            yield prefix + name, getattr(self, name), None
        for name in ("r_z", "r_i", "r_f", "r_o"):
            yield prefix + name, getattr(self, name), self.mask
        for name in ("b_z", "b_i", "b_f", "b_o"):
            yield prefix + name, getattr(self, name), None


def init_slstm_params(d_in, d_hidden, num_heads, rng, dtype=None) -> SLstmParams:
    """Uniform +-1/sqrt(fan_in) weights, forget bias +1, other biases 0."""
    mask = head_mask(d_hidden, num_heads)

    def uniform(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True, dtype=dtype)

    block_width = d_hidden // num_heads
    params = {}
    for name in ("w_z", "w_i", "w_f", "w_o"):
        params[name] = uniform((d_hidden, d_in), d_in)
    for name in ("r_z", "r_i", "r_f", "r_o"):
        r = uniform((d_hidden, d_hidden), block_width)
        r.data *= mask.astype(r.data.dtype)
        params[name] = r
    for name in ("b_z", "b_i", "b_o"):
        params[name] = Tensor(np.zeros((1, d_hidden)), requires_grad=True, dtype=dtype)
    params["b_f"] = Tensor(np.ones((1, d_hidden)), requires_grad=True, dtype=dtype)
    return SLstmParams(num_heads=num_heads, mask=mask, **params)


@dataclass
class StabilizerStats:
    """Stabilizer health gathered from the forward passes it is handed to.

    ``min_gap`` is the smallest |(f̃ + m_prev) − ĩ| seen: how close the
    running max came to switching operands, where its derivative jumps."""

    min_gap: float = math.inf


# Fused pre-activation columns are [z | o | i | f], D wide each; a non-finite
# value is reported for the first gate in this order.
_CHECK_ORDER = (("input", 2), ("forget", 3), ("cell-input", 0), ("output", 1))


def _raise_nonfinite(pre: np.ndarray, d: int) -> None:
    for name, k in _CHECK_ORDER:
        if not np.isfinite(pre[:, k * d:(k + 1) * d]).all():
            raise FloatingPointError(f"non-finite pre-activation in {name} gate")


def _sequence(p: SLstmParams, x: Tensor, batch: int, x_if: Tensor | None = None,
              stats: StabilizerStats | None = None) -> Tensor:
    """Fold the cell over flat token-major rows x [L*B, D_in] from the zero
    state; returns the hidden rows [L*B, D_hidden].

    x feeds the cell-input and output gates; x_if (defaulting to x) feeds the
    exponential input/forget gates, which is where the optional causal
    convolution taps in.  The whole sequence is one tape node whose backward
    is backpropagation through time.  It treats the stabilizer m as a
    constant: h does not depend on m mathematically, so the m paths carry no
    gradient.
    """
    rows = x.shape[0]
    d = p.d_hidden
    if x.data.ndim != 2 or x.shape[1] != p.d_in:
        raise ShapeError(f"token width {x.shape[-1]} != cell input width {p.d_in}")
    if rows < 1 or batch < 1 or rows % batch:
        raise ShapeError(f"{rows} rows do not hold whole tokens of batch {batch}")

    # Columns [z | o | i | f].  The input products of every token are made
    # before the loop, one matmul per gate straight into its columns: a
    # single B = 1 token then takes the same BLAS path as a per-step cell.
    # Each step makes one recurrent matmul.
    groups = ([(x, slice(0, 4 * d))] if x_if is None
              else [(x, slice(0, 2 * d)), (x_if, slice(2 * d, 4 * d))])
    w_t = [np.ascontiguousarray(w.data.T) for w in (p.w_z, p.w_o, p.w_i, p.w_f)]
    pre_in = np.empty((rows, 4 * d), dtype=np.result_type(x.data, w_t[0]))
    sources = (x, x, x, x) if x_if is None else (x, x, x_if, x_if)
    for k, src in enumerate(sources):
        np.matmul(src.data, w_t[k], out=pre_in[:, k * d:(k + 1) * d])
    pre_in += np.concatenate([p.b_z.data, p.b_o.data, p.b_i.data, p.b_f.data], axis=1)
    r_all = np.concatenate([p.r_z.data.T, p.r_o.data.T, p.r_i.data.T, p.r_f.data.T],
                           axis=1)

    weights = [p.w_z, p.w_o, p.w_i, p.w_f, p.r_z, p.r_o, p.r_i, p.r_f,
               p.b_z, p.b_o, p.b_i, p.b_f]
    inputs = [x] + ([] if x_if is None else [x_if]) + weights
    keep = T.will_record(inputs)
    hs = np.empty((rows, d), dtype=x.data.dtype)
    if keep:
        acts = np.empty_like(pre_in)   # z, o, i, f of every step
        cs = np.empty_like(hs)
        ns = np.empty_like(hs)
    h = c = n = m = np.zeros((batch, d), dtype=x.data.dtype)
    for lo in range(0, rows, batch):
        now = slice(lo, lo + batch)
        pre = pre_in[now] + h @ r_all
        if not np.isfinite(pre).all():
            _raise_nonfinite(pre, d)
        act = acts[now] if keep else np.empty_like(pre)
        z, o, i, f = (act[:, k * d:(k + 1) * d] for k in range(4))
        np.tanh(pre[:, :d], out=z)
        np.tanh(0.5 * pre[:, d:2 * d], out=o)   # overflow-free logistic
        o *= 0.5
        o += 0.5
        i_tilde = pre[:, 2 * d:3 * d]
        f_tilde = pre[:, 3 * d:] + m
        m = np.maximum(f_tilde, i_tilde)
        if stats is not None:
            stats.min_gap = min(stats.min_gap, float(np.abs(f_tilde - i_tilde).min()))
        np.exp(i_tilde - m, out=i)
        np.exp(f_tilde - m, out=f)
        c = f * c + i * z
        n = f * n + i
        h = o * c / n
        hs[now] = h
        if keep:
            cs[now] = c
            ns[now] = n

    def backward(g):
        d_pre = np.empty_like(acts)
        dh = dc = dn = np.zeros((batch, d), dtype=g.dtype)
        for lo in range(rows - batch, -1, -batch):
            now = slice(lo, lo + batch)
            z, o, i, f = (acts[now, k * d:(k + 1) * d] for k in range(4))
            c, n, h = cs[now], ns[now], hs[now]
            dh = g[now] + dh
            dc = dc + dh * o / n
            dn = dn - dh * h / n
            dp = d_pre[now]
            dp[:, :d] = dc * i * (1.0 - z * z)
            dp[:, d:2 * d] = dh * (c / n) * o * (1.0 - o)
            dp[:, 2 * d:3 * d] = (dc * z + dn) * i
            if lo:
                prev = slice(lo - batch, lo)
                dp[:, 3 * d:] = (dc * cs[prev] + dn * ns[prev]) * f
            else:
                dp[:, 3 * d:] = 0.0   # c and n start at zero
            dh = dp @ r_all.T
            dc = dc * f
            dn = dn * f
        h_prev = np.zeros_like(hs)
        h_prev[batch:] = hs[:-batch]
        d_r = h_prev.T @ d_pre
        d_b = d_pre.sum(axis=0, keepdims=True)
        w_all = np.concatenate(w_t, axis=1)
        d_x = [d_pre[:, s] @ w_all[:, s].T for _, s in groups]
        d_w = np.concatenate([src.data.T @ d_pre[:, s] for src, s in groups], axis=1)
        cols = [slice(k * d, (k + 1) * d) for k in range(4)]
        return (d_x + [d_w[:, s].T for s in cols] + [d_r[:, s].T for s in cols]
                + [d_b[:, s] for s in cols])

    return T.custom_op(hs, inputs, backward)


@dataclass
class BlockWeights:
    """One residual block: layer norm, optional causal conv, cell, projection."""

    cell: SLstmParams
    ln_gamma: Tensor
    ln_beta: Tensor
    proj_w: Tensor
    conv_kernel: Tensor | None = None  # [width, D], tap j applies to token t-j

    def named_parameters(self, prefix: str = ""):
        yield from self.cell.named_parameters(prefix + "cell.")
        yield prefix + "ln_gamma", self.ln_gamma, None
        yield prefix + "ln_beta", self.ln_beta, None
        yield prefix + "proj_w", self.proj_w, None
        if self.conv_kernel is not None:
            yield prefix + "conv_kernel", self.conv_kernel, None


def init_block_weights(cfg: BlockConfig, rng, dtype=None) -> BlockWeights:
    d = cfg.d_hidden
    cell = init_slstm_params(d, d, cfg.num_heads, rng, dtype=dtype)
    ln_gamma = Tensor(np.ones((1, d)), requires_grad=True, dtype=dtype)
    ln_beta = Tensor(np.zeros((1, d)), requires_grad=True, dtype=dtype)
    bound = 1.0 / np.sqrt(d)
    proj_w = Tensor(rng.uniform(-bound, bound, size=(d, d)), requires_grad=True, dtype=dtype)
    conv = None
    if cfg.conv_width > 0:
        cbound = 1.0 / np.sqrt(cfg.conv_width)
        conv = Tensor(rng.uniform(-cbound, cbound, size=(cfg.conv_width, d)),
                      requires_grad=True, dtype=dtype)
    return BlockWeights(cell=cell, ln_gamma=ln_gamma, ln_beta=ln_beta,
                        proj_w=proj_w, conv_kernel=conv)


def _layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    mu = x.mean(axis=1, keepdims=True)
    var = x.var_pop(axis=1, keepdims=True)
    return gamma * ((x - mu) / T.sqrt(var + LN_EPS)) + beta


def _causal_conv(x: Tensor, kernel: Tensor, batch: int) -> Tensor:
    """Causal depthwise taps added on top of token-major rows x: token t gains
    kernel[j] * x[t - j] for every tap j <= t (a row shift by j*B), so a zero
    kernel reduces exactly to the conv-disabled path."""
    rows, d = x.shape
    acc = x
    for j in range(kernel.shape[0]):
        shift = j * batch
        if shift >= rows:
            break
        src = x
        if shift:
            pad = Tensor(np.zeros((shift, d)), dtype=x.data.dtype)
            src = T.concat([pad, T.slice_axis(x, 0, 0, rows - shift)], axis=0)
        acc = acc + T.slice_axis(kernel, 0, j, j + 1) * src
    return acc


def _block(cfg: BlockConfig, w: BlockWeights, x: Tensor, batch: int,
           training: bool, rng, stats: StabilizerStats | None = None) -> Tensor:
    """Residual block over token-major rows [L*B, D]; every stage but the
    recurrence runs once on the whole matrix, dropout with one mask."""
    d = cfg.d_hidden
    if x.shape[1] != d:
        raise ShapeError(f"token width {x.shape[1]} != block width {d}")
    if training and cfg.dropout_rate > 0.0 and rng is None:
        raise ValueError("training with dropout needs an rng")

    normed = _layer_norm(x, w.ln_gamma, w.ln_beta)
    x_if = None
    if cfg.conv_width > 0 and w.conv_kernel is not None:
        x_if = _causal_conv(normed, w.conv_kernel, batch)
    h = _sequence(w.cell, normed, batch, x_if, stats)

    y = T.matmul(h, T.transpose(w.proj_w))
    if training and cfg.dropout_rate > 0.0:
        keep = 1.0 - cfg.dropout_rate
        mask = (rng.random(size=y.shape) < keep).astype(y.data.dtype) / keep
        y = y * Tensor(mask, dtype=y.data.dtype)
    return x + y


def _stack_tokens(cfg: BlockConfig, blocks: list[BlockWeights], x: Tensor, batch: int,
                  training: bool, rng, stats: StabilizerStats | None = None) -> Tensor:
    """The shared stack over token-major rows [L*B, D]: B independent
    sequences of L tokens, token t in rows t*B .. (t+1)*B."""
    for w in blocks:
        x = _block(cfg, w, x, batch, training, rng, stats)
    return x


def sequence_forward(params: SLstmParams, tokens) -> Tensor:
    """Fold the cell left-to-right over tokens [L, D_in]; returns [L, D_hidden]."""
    return _sequence(params, T.as_tensor(tokens), 1)


def block_forward(cfg: BlockConfig, weights: BlockWeights, tokens,
                  training: bool = False, rng=None) -> Tensor:
    """Residual block over tokens [L, D]: LN, optional conv, cell, projection,
    dropout, skip connection.  Width-preserving."""
    return _block(cfg, weights, T.as_tensor(tokens), 1, training, rng)


def stack_forward(cfg: BlockConfig, blocks: list[BlockWeights], tokens,
                  training: bool = False, rng=None) -> Tensor:
    """Sequential composition of block_forward; the same stack serves every view."""
    if len(blocks) < 1:
        raise ValueError("stack needs at least one block")
    return _stack_tokens(cfg, blocks, T.as_tensor(tokens), 1, training, rng)
