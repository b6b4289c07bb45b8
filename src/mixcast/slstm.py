"""Stabilized exponential-gated recurrent cell, residual blocks, and stacks.

The cell keeps four running states: cell ``c``, normalizer ``n``, hidden
``h``, and stabilizer ``m``.  Input and forget gates are exponential; the
stabilizer is the running max of their pre-activations and is subtracted
inside the exponentials so the hidden output is computed without overflow
while staying mathematically unchanged.

Sequences are flat token-major matrices: ``B`` independent sequences of ``L``
tokens form ``[L*B, D]`` rows, token ``t`` in rows ``t*B .. (t+1)*B``.  A
residual block (layer norm, causal convolution, recurrence, projection,
dropout, residual) is one engine op computed on numpy arrays, with a
hand-written backward that returns every block gradient; the recurrence
inside it is backpropagated through time.  Gates are held as slabs
``[4, L*B, D]`` in the order z, o, i, f, so each gate of each token is a
contiguous ``[B, D]`` block.  The input products are one matmul per gate,
hoisted out of the time loop, and each step makes one stacked recurrent
matmul.

Recurrent weight matrices are block-diagonal over heads: they are stored
densely together with a binary mask, and the optimizer re-applies the mask
after every update so off-block entries stay exactly zero.

The input-gate bias ``b_i`` has no effect on the output: from the zero state
a per-unit constant added to the input-gate pre-activation scales ``c`` and
``n`` alike, so ``h = o c / n`` is unchanged, and its gradient is zero up to
rounding.  It is kept (and trained and checkpointed) so that the checkpoint
format does not change.
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


# Gate slabs are ordered z, o, i, f; a non-finite pre-activation is reported
# for the first gate in _CHECK_ORDER.
_GATES = ("z", "o", "i", "f")
_CHECK_ORDER = (("input", 2), ("forget", 3), ("cell-input", 0), ("output", 1))


def _cell_tensors(p: SLstmParams) -> list[Tensor]:
    """The cell's weights in engine-op input order: W, R, b, each z, o, i, f."""
    return [getattr(p, f"{kind}_{gate}") for kind in "wrb" for gate in _GATES]


def _check_rows(x: Tensor, batch: int) -> None:
    rows = x.shape[0]
    if rows < 1 or batch < 1 or rows % batch:
        raise ShapeError(f"{rows} rows do not hold whole tokens of batch {batch}")


def _raise_nonfinite(pre: np.ndarray) -> None:
    for name, k in _CHECK_ORDER:
        if not np.isfinite(pre[k]).all():
            raise FloatingPointError(f"non-finite pre-activation in {name} gate")


def _recurrence(p: SLstmParams, x: np.ndarray, x_if: np.ndarray, batch: int,
                keep: bool, stats: StabilizerStats | None):
    """Fold the cell over token-major rows from the zero state; returns the
    hidden rows [L*B, D] and, when ``keep``, the (gates, cells, normalizers)
    history the backward needs.

    x feeds the cell-input and output gates, x_if the exponential input and
    forget gates.  The input products fill a pre-activation slab before the
    loop, one matmul per gate straight into its contiguous slab, so a single
    B = 1 token takes the same BLAS path as a per-step cell.  Each step adds
    its recurrent product in place and runs in-place ufuncs on [B, D] blocks.
    """
    rows, d = x.shape[0], p.d_hidden
    dtype = np.result_type(x, p.w_z.data)
    pre = np.empty((4, rows, d), dtype=dtype)
    for k, (gate, src) in enumerate(zip(_GATES, (x, x, x_if, x_if))):
        np.matmul(src, np.ascontiguousarray(getattr(p, "w_" + gate).data.T), out=pre[k])
        pre[k] += getattr(p, "b_" + gate).data
    r4 = np.stack([getattr(p, "r_" + gate).data.T for gate in _GATES])

    hs = np.empty((rows, d), dtype=dtype)
    zeros = np.zeros((batch, d), dtype=dtype)
    m = zeros.copy()
    rec = np.empty((4, batch, d), dtype=dtype)
    tmp = np.empty((batch, d), dtype=dtype)
    if keep:
        acts, cs, ns = np.empty_like(pre), np.empty_like(hs), np.empty_like(hs)
    else:
        # Without a tape the gates overwrite the spent recurrent product and
        # c, n are updated in place.
        act, c, n = rec, np.empty_like(tmp), np.empty_like(tmp)
    h = c_prev = n_prev = zeros
    for lo in range(0, rows, batch):
        now = slice(lo, lo + batch)
        pre_t = pre[:, now]
        np.matmul(h, r4, out=rec)
        pre_t += rec
        if not np.isfinite(pre_t).all():
            _raise_nonfinite(pre_t)
        if keep:
            act, c, n = acts[:, now], cs[now], ns[now]
        z, o, i, f = act
        np.tanh(pre_t[0], out=z)
        np.multiply(pre_t[1], 0.5, out=o)   # overflow-free logistic
        np.tanh(o, out=o)
        o *= 0.5
        o += 0.5
        i_tilde, f_tilde = pre_t[2], pre_t[3]
        f_tilde += m
        if stats is not None:
            np.subtract(f_tilde, i_tilde, out=tmp)
            stats.min_gap = min(stats.min_gap, float(np.abs(tmp, out=tmp).min()))
        np.maximum(f_tilde, i_tilde, out=m)
        np.subtract(i_tilde, m, out=i)
        np.exp(i, out=i)
        np.subtract(f_tilde, m, out=f)
        np.exp(f, out=f)
        np.multiply(i, z, out=tmp)           # c = f c_prev + i z
        np.multiply(f, c_prev, out=c)
        c += tmp
        np.multiply(f, n_prev, out=n)        # n = f n_prev + i
        n += i
        h = hs[now]                          # h = o c / n
        np.multiply(o, c, out=h)
        h /= n
        c_prev, n_prev = c, n
    return hs, ((acts, cs, ns) if keep else None)


def _recurrence_backward(p: SLstmParams, d_hs: np.ndarray, hs: np.ndarray, history,
                         x: np.ndarray, x_if: np.ndarray, batch: int):
    """Backpropagation through time for :func:`_recurrence`.

    Returns the gradients of x, of x_if, and of the cell weights in
    engine-op input order.  The spent history is overwritten instead of
    allocating fresh arrays: the gates with their pre-activation gradients,
    the cell and normalizer rows with the input-path gradients.  The
    stabilizer m is treated as a constant: h does not depend on it
    mathematically, so the m paths carry no gradient.
    """
    acts, cs, ns = history
    rows, d = hs.shape
    r4t = np.stack([getattr(p, "r_" + gate).data for gate in _GATES])
    dh, dc, dn, t1, t2 = (np.zeros((batch, d), dtype=d_hs.dtype) for _ in range(5))
    rec = np.empty((4, batch, d), dtype=d_hs.dtype)
    for lo in range(rows - batch, -1, -batch):
        now = slice(lo, lo + batch)
        z, o, i, f = acts[:, now]
        c, n, h = cs[now], ns[now], hs[now]
        dh += d_hs[now]
        np.multiply(dh, o, out=t1)           # dc += dh o / n
        t1 /= n
        dc += t1
        np.multiply(dh, h, out=t1)           # dn -= dh h / n
        t1 /= n
        dn -= t1
        np.divide(c, n, out=t1)              # d_o = dh (c / n) o (1 - o)
        t1 *= dh
        t1 *= o
        np.subtract(1.0, o, out=o)
        o *= t1
        np.multiply(dc, z, out=t2)           # d_i = (dc z + dn) i
        t2 += dn
        t2 *= i
        np.multiply(z, z, out=z)             # d_z = dc i (1 - z^2)
        np.subtract(1.0, z, out=z)
        np.multiply(dc, i, out=t1)
        z *= t1
        np.copyto(i, t2)
        if not lo:
            f.fill(0.0)                      # c and n start at zero
            break
        prev = slice(lo - batch, lo)         # d_f = (dc c_prev + dn n_prev) f
        np.multiply(dc, cs[prev], out=t1)
        np.multiply(dn, ns[prev], out=t2)
        t1 += t2
        dc *= f
        dn *= f
        f *= t1
        np.matmul(acts[:, now], r4t, out=rec)
        np.sum(rec, axis=0, out=dh)
    d_pre = acts

    weights = [getattr(p, "w_" + gate).data for gate in _GATES]
    d_w = [d_pre[k].T @ src for k, src in enumerate((x, x, x_if, x_if))]
    d_r = [d_pre[k, batch:].T @ hs[:-batch] for k in range(4)]
    d_b = [d_pre[k].sum(axis=0, keepdims=True) for k in range(4)]
    fits = cs.shape == x.shape
    d_x = np.matmul(d_pre[0], weights[0], out=cs if fits else None)
    d_x_if = np.matmul(d_pre[2], weights[2], out=ns if fits else None)
    tmp = np.matmul(d_pre[1], weights[1])
    d_x += tmp
    d_x_if += np.matmul(d_pre[3], weights[3], out=tmp)
    return d_x, d_x_if, d_w + d_r + d_b


def _sequence(p: SLstmParams, x: Tensor, batch: int,
              stats: StabilizerStats | None = None) -> Tensor:
    """The bare recurrence over flat token-major rows x [L*B, D_in] as one
    tape node; returns the hidden rows [L*B, D_hidden]."""
    if x.data.ndim != 2 or x.shape[1] != p.d_in:
        raise ShapeError(f"token width {x.shape[-1]} != cell input width {p.d_in}")
    _check_rows(x, batch)
    inputs = [x] + _cell_tensors(p)
    hs, history = _recurrence(p, x.data, x.data, batch, T.will_record(inputs), stats)

    def backward(g):
        d_x, d_x_if, d_cell = _recurrence_backward(p, g, hs, history, x.data, x.data,
                                                   batch)
        d_x += d_x_if
        return [d_x] + d_cell

    return T.custom_op(hs, inputs, backward)


def _block(cfg: BlockConfig, w: BlockWeights, x: Tensor, batch: int,
           training: bool, rng, stats: StabilizerStats | None = None) -> Tensor:
    """Residual block over token-major rows [L*B, D] as one tape node: layer
    norm, causal-conv taps on the input/forget path, the recurrence, the
    projection, dropout (one [L*B, D] mask) and the residual."""
    d = cfg.d_hidden
    if x.data.ndim != 2 or x.shape[1] != d:
        raise ShapeError(f"token width {x.shape[-1]} != block width {d}")
    _check_rows(x, batch)
    dropout = training and cfg.dropout_rate > 0.0
    if dropout and rng is None:
        raise ValueError("training with dropout needs an rng")
    kernel = None
    if cfg.conv_width > 0 and w.conv_kernel is not None:
        kernel = w.conv_kernel.data
    inputs = ([x] + _cell_tensors(w.cell) + [w.ln_gamma, w.ln_beta, w.proj_w]
              + ([] if kernel is None else [w.conv_kernel]))
    keep = T.will_record(inputs)
    rows = x.shape[0]

    # Layer norm over each row, with eps in the rows' dtype.
    xhat = x.data - x.data.mean(axis=1, keepdims=True)
    squares = np.square(xhat)
    inv_std = squares.mean(axis=1, keepdims=True)
    inv_std += x.data.dtype.type(LN_EPS)
    np.sqrt(inv_std, out=inv_std)
    np.divide(1.0, inv_std, out=inv_std)
    xhat *= inv_std
    # Only the backward reads xhat again, so without a tape it is scaled in place.
    normed = np.multiply(xhat, w.ln_gamma.data, out=squares if keep else xhat)
    normed += w.ln_beta.data

    # Causal depthwise taps: token t gains kernel[j] * normed[t - j] for every
    # tap j <= t, a row shift by j*B added in place, so a zero kernel reduces
    # exactly to the conv-disabled path.
    x_if = normed
    if kernel is not None:
        x_if = normed * kernel[0]
        x_if += normed
        for j in range(1, kernel.shape[0]):
            shift = j * batch
            if shift >= rows:
                break
            x_if[shift:] += normed[:rows - shift] * kernel[j]

    hs, history = _recurrence(w.cell, normed, x_if, batch, keep, stats)
    out = hs @ w.proj_w.data.T
    mask = None
    if dropout:
        keep_p = 1.0 - cfg.dropout_rate
        mask = (rng.random(size=out.shape) < keep_p).astype(out.dtype) / keep_p
        out *= mask
    out += x.data

    def backward(g):
        dy = g if mask is None else g * mask
        d_proj = dy.T @ hs
        d_hs = dy @ w.proj_w.data
        d_normed, d_x_if, d_cell = _recurrence_backward(w.cell, d_hs, hs, history,
                                                        normed, x_if, batch)
        d_normed += d_x_if
        d_kernel = []
        if kernel is not None:
            d_k = np.zeros_like(kernel)
            d_k[0] = np.einsum("ij,ij->j", d_x_if, normed)
            d_normed += np.multiply(d_x_if, kernel[0], out=d_hs)
            for j in range(1, kernel.shape[0]):
                shift = j * batch
                if shift >= rows:
                    break
                d_k[j] = np.einsum("ij,ij->j", d_x_if[shift:], normed[:rows - shift])
                d_normed[:rows - shift] += np.multiply(d_x_if[shift:], kernel[j],
                                                       out=d_hs[shift:])
            d_kernel = [d_k]

        d_gamma = np.einsum("ij,ij->j", d_normed, xhat)[None]
        d_beta = d_normed.sum(axis=0, keepdims=True)
        d_normed *= w.ln_gamma.data            # now d xhat
        d_x = d_normed - d_normed.mean(axis=1, keepdims=True)
        proj = np.einsum("ij,ij->i", d_normed, xhat)[:, None]
        proj /= d
        d_x -= np.multiply(xhat, proj, out=d_normed)
        d_x *= inv_std
        d_x += g
        return [d_x] + d_cell + [d_gamma, d_beta, d_proj] + d_kernel

    return T.custom_op(out, inputs, backward)


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
