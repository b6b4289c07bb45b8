"""Unfused reference blocks: the oracle for the fused block op.

This is the per-step formulation the library used before its blocks became
one engine op each: layer norm, the causal convolution and every gate are
built from the ops of ``engine_reference``, so the tape differentiates them op
by op.
Blocks and stacks here take lists of [B, D] tokens; ``to_rows`` and
``from_rows`` convert to and from the flat token-major matrices of
:mod:`mixcast.slstm`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mixcast import tensor as T
from mixcast.slstm import LN_EPS, BlockConfig, BlockWeights, SLstmParams
from mixcast.tensor import ShapeError, Tensor

import engine_reference as R


@dataclass
class SLstmState:
    """Recurrent state: each component is [B, D_hidden]."""

    c: Tensor
    n: Tensor
    h: Tensor
    m: Tensor


@dataclass
class GateActivations:
    z: Tensor
    i: Tensor
    f: Tensor
    o: Tensor
    i_tilde: Tensor
    f_tilde: Tensor


def zero_state(batch: int, d_hidden: int, dtype=None) -> SLstmState:
    """Neutral initial state c = n = h = m = 0."""
    def zeros():
        return Tensor(np.zeros((batch, d_hidden)), dtype=dtype)

    return SLstmState(c=zeros(), n=zeros(), h=zeros(), m=zeros())


def block_diagonal(r: Tensor) -> Tensor:
    """The dense [D, D] block-diagonal matrix of per-head blocks
    [H, d_h, d_h], built from engine ops so that its gradient lands on the
    per-head leaf."""
    heads, width, _ = r.shape
    zeros = Tensor(np.zeros((width, (heads - 1) * width)), dtype=r.data.dtype)
    rows = []
    for k in range(heads):
        head = T.reshape(R.slice_axis(r, 0, k, k + 1), (width, width))
        rows.append(R.concat([R.slice_axis(zeros, 1, 0, k * width), head,
                              R.slice_axis(zeros, 1, k * width, zeros.shape[1])], axis=1))
    return R.concat(rows, axis=0)


class _TransposedWeights:
    """Per-forward cache of W/R transposes so long sequences reuse them; R is
    multiplied densely, structural zeros included."""

    __slots__ = ("wz", "wi", "wf", "wo", "rz", "ri", "rf", "ro")

    def __init__(self, p: SLstmParams):
        self.wz = R.transpose(p.w_z)
        self.wi = R.transpose(p.w_i)
        self.wf = R.transpose(p.w_f)
        self.wo = R.transpose(p.w_o)
        self.rz = R.transpose(block_diagonal(p.r_z))
        self.ri = R.transpose(block_diagonal(p.r_i))
        self.rf = R.transpose(block_diagonal(p.r_f))
        self.ro = R.transpose(block_diagonal(p.r_o))


def _check_finite_pre(name: str, pre: Tensor) -> None:
    if not np.isfinite(pre.data).all():
        raise FloatingPointError(f"non-finite pre-activation in {name} gate")


def _step(p: SLstmParams, tw: _TransposedWeights, x: Tensor, prev: SLstmState,
          x_if: Tensor | None = None):
    """One recurrence step on [B, D_in] input(s); returns (state, gates).

    x feeds the cell-input and output gates; x_if (defaulting to x) feeds the
    exponential input/forget gates, which is where the optional causal
    convolution taps in.
    """
    if x_if is None:
        x_if = x
    h_prev = prev.h

    def pre(x_in, w, r, b):
        return R.add(R.add(R.matmul(x_in, w), R.matmul(h_prev, r)), b)

    pre_z = pre(x, tw.wz, tw.rz, p.b_z)
    pre_o = pre(x, tw.wo, tw.ro, p.b_o)
    i_tilde = pre(x_if, tw.wi, tw.ri, p.b_i)
    f_tilde = pre(x_if, tw.wf, tw.rf, p.b_f)
    for name, pre in (("input", i_tilde), ("forget", f_tilde),
                      ("cell-input", pre_z), ("output", pre_o)):
        _check_finite_pre(name, pre)

    m = R.max2(R.add(f_tilde, prev.m), i_tilde)
    i = R.exp(R.sub(i_tilde, m))
    f = R.exp(R.sub(R.add(f_tilde, prev.m), m))
    z = R.tanh(pre_z)
    o = R.sigmoid(pre_o)

    c = R.add(R.mul(f, prev.c), R.mul(i, z))
    n = R.add(R.mul(f, prev.n), i)
    h = R.div(R.mul(o, c), n)

    state = SLstmState(c=c, n=n, h=h, m=m)
    gates = GateActivations(z=z, i=i, f=f, o=o, i_tilde=i_tilde, f_tilde=f_tilde)
    return state, gates


def cell_step(params: SLstmParams, x, prev: SLstmState, x_if=None):
    """Single recurrence update; x is [B, D_in] (or [D_in], promoted to B=1)."""
    x = T.as_tensor(x)
    if x.data.ndim == 1:
        x = T.reshape(x, (1, x.shape[0]))
    if x.shape[1] != params.w_z.shape[1]:
        raise ShapeError(f"token width {x.shape[1]} != cell input width {params.w_z.shape[1]}")
    if prev.h.shape[1] != params.d_hidden:
        raise ShapeError(
            f"state width {prev.h.shape[1]} != hidden width {params.d_hidden}"
        )
    return _step(params, _TransposedWeights(params), x, prev, x_if)


def sequence(p: SLstmParams, tokens: list[Tensor],
             tokens_if: list[Tensor] | None = None) -> list[Tensor]:
    """Hidden outputs of the cell folded over [B, D_in] tokens from the zero state."""
    tw = _TransposedWeights(p)
    state = zero_state(tokens[0].shape[0], p.d_hidden, dtype=tokens[0].data.dtype)
    hiddens = []
    for t, x in enumerate(tokens):
        x_if = tokens_if[t] if tokens_if is not None else None
        state, _ = _step(p, tw, x, state, x_if)
        hiddens.append(state.h)
    return hiddens


def _layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    mu = R.reduce_mean(x, axis=1, keepdims=True)
    var = R.reduce_var(x, axis=1, keepdims=True)
    return R.add(R.mul(gamma, R.div(R.sub(x, mu), R.sqrt(R.add(var, LN_EPS)))), beta)


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
            src = R.concat([pad, R.slice_axis(x, 0, 0, rows - shift)], axis=0)
        acc = R.add(acc, R.mul(R.slice_axis(kernel, 0, j, j + 1), src))
    return acc


def block(cfg: BlockConfig, w: BlockWeights, tokens: list[Tensor],
          training: bool = False, rng=None) -> list[Tensor]:
    """Residual block token by token; dropout draws one [B, D] mask per token."""
    normed = [_layer_norm(x, w.ln_gamma, w.ln_beta) for x in tokens]

    tokens_if = None
    if cfg.conv_width > 0 and w.conv_kernel is not None:
        batch = tokens[0].shape[0]
        tokens_if = from_rows(_causal_conv(to_rows(normed), w.conv_kernel, batch), batch)

    hiddens = sequence(w.cell, normed, tokens_if)

    proj_t = R.transpose(w.proj_w)
    out = []
    for t, h in enumerate(hiddens):
        y = R.matmul(h, proj_t)
        if training and cfg.dropout_rate > 0.0:
            keep = 1.0 - cfg.dropout_rate
            mask = (rng.random(size=y.shape) < keep).astype(y.data.dtype) / keep
            y = R.mul(y, Tensor(mask, dtype=y.data.dtype))
        out.append(R.add(tokens[t], y))
    return out


def stack(cfg: BlockConfig, blocks: list[BlockWeights], tokens: list[Tensor],
          training: bool = False, rng=None) -> list[Tensor]:
    for w in blocks:
        tokens = block(cfg, w, tokens, training, rng)
    return tokens


def to_rows(tokens: list[Tensor]) -> Tensor:
    """[B, D] tokens to one flat token-major [L*B, D] matrix."""
    return R.concat(tokens, axis=0)


def from_rows(rows: Tensor, batch: int) -> list[Tensor]:
    """Flat token-major [L*B, D] rows to a list of [B, D] tokens."""
    return [R.slice_axis(rows, 0, lo, lo + batch) for lo in range(0, rows.shape[0], batch)]
