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
``[4, rows, D]`` in the order z, o, i, f, so each gate of each token is a
contiguous ``[B, D]`` block.  The input products are one matmul per gate,
hoisted out of the time loop.

Every run of the stack goes through a :class:`Stream`, which its caller
hands successive chunks of whole tokens; a forward that records a tape hands
it all its rows as one chunk.  Each block carries its recurrence state
``(h, c, n, m)`` and its last ``conv_width - 1`` normed tokens across the
seams.  The stream's buffers are carved in one call from a :class:`Scratch`
arena, which the batches of an evaluation pass, or the steps of a training
epoch, share, so they do not fault the same memory in again.  Without a tape
the blocks share one set of chunk buffers and add their output into the
chunk's rows in place.  A stream that records gives each block buffers of
its own, the history its backward reads, and each block's output is a fresh
array.  Dropout masks are drawn ``CHUNK_ROWS`` rows at a time from the one
generator, which continues a single stream.

Recurrent weight matrices are block-diagonal over heads, and only their
diagonal blocks exist: each of ``r_z|r_i|r_f|r_o`` is stored as a
``[heads, d_h, d_h]`` tensor, head ``k`` mapping hidden units
``k*d_h .. (k+1)*d_h`` to the same units.  Every recurrent product, forward,
backward and weight gradient, is one batched product over the heads.
Checkpoints that store the matrices densely are read through
:func:`diagonal_blocks`.

The input-gate bias ``b_i`` has no effect on the output: from the zero state
a per-unit constant added to the input-gate pre-activation scales ``c`` and
``n`` alike, so ``h = o c / n`` is unchanged, and its gradient is zero up to
rounding.  It is kept (and trained and checkpointed) because the paper's
cell has it and counts it among its parameters, and because dropping it
would move the forecasts of existing checkpoints at rounding level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def diagonal_blocks(dense: np.ndarray, num_heads: int) -> np.ndarray:
    """The [H, d_h, d_h] diagonal head blocks of a [D, D] matrix."""
    width = dense.shape[0] // num_heads
    return np.stack([dense[lo:lo + width, lo:lo + width]
                     for lo in range(0, dense.shape[0], width)])


@dataclass
class SLstmParams:
    """Input weights W_*, per-head recurrent weights R_* [H, d_h, d_h],
    biases b_*."""

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

    @property
    def d_hidden(self) -> int:
        return self.w_z.shape[0]

    def named_parameters(self, prefix: str = ""):
        for kind in "wrb":
            for gate in ("z", "i", "f", "o"):
                name = f"{kind}_{gate}"
                yield prefix + name, getattr(self, name), None


def init_slstm_params(d_in, d_hidden, num_heads, rng) -> SLstmParams:
    """Uniform +-1/sqrt(fan_in) weights, forget bias +1, other biases 0, in
    the dtype of :func:`mixcast.tensor.precision`.

    Each recurrent matrix is drawn as a dense [D, D] uniform that keeps only
    its diagonal head blocks, so the rng stream is the same for every head
    count, and the same as when the matrices were stored densely."""
    def param(data):
        return Tensor(data, requires_grad=True)

    def uniform(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    params = {}
    for name in ("w_z", "w_i", "w_f", "w_o"):
        params[name] = param(uniform((d_hidden, d_in), d_in))
    for name in ("r_z", "r_i", "r_f", "r_o"):
        dense = uniform((d_hidden, d_hidden), d_hidden // num_heads)
        params[name] = param(diagonal_blocks(dense, num_heads))
    for name in ("b_z", "b_i", "b_o"):
        params[name] = param(np.zeros((1, d_hidden)))
    params["b_f"] = param(np.ones((1, d_hidden)))
    return SLstmParams(num_heads=num_heads, **params)


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


def init_block_weights(cfg: BlockConfig, rng) -> BlockWeights:
    d = cfg.d_hidden
    cell = init_slstm_params(d, d, cfg.num_heads, rng)
    ln_gamma = Tensor(np.ones((1, d)), requires_grad=True)
    ln_beta = Tensor(np.zeros((1, d)), requires_grad=True)
    bound = 1.0 / np.sqrt(d)
    proj_w = Tensor(rng.uniform(-bound, bound, size=(d, d)), requires_grad=True)
    conv = None
    if cfg.conv_width > 0:
        cbound = 1.0 / np.sqrt(cfg.conv_width)
        conv = Tensor(rng.uniform(-cbound, cbound, size=(cfg.conv_width, d)),
                      requires_grad=True)
    return BlockWeights(cell=cell, ln_gamma=ln_gamma, ln_beta=ln_beta,
                        proj_w=proj_w, conv_kernel=conv)


# Gate slabs are ordered z, o, i, f; a non-finite pre-activation is reported
# for the first gate in _CHECK_ORDER.
_GATES = ("z", "o", "i", "f")
_CHECK_ORDER = (("input", 2), ("forget", 3), ("cell-input", 0), ("output", 1))

# Row budget of one token chunk of the stack, which the pipeline's forward
# streams: a chunk holds as many whole tokens as fit (at least one), so
# buffers that live for one chunk stay this small however long the sequence
# is.  Dropout masks are drawn in pieces of this many rows.
CHUNK_ROWS = 2048

# Each array carved from a Scratch starts a multiple of this many bytes (a
# cache line) into its buffer.
_ALIGN = 64


class Scratch:
    """An arena that chunk buffers are carved from, reused by every carve.

    The first carve allocates the buffer, exactly as large as that carve
    needs, and a later carve that needs more replaces it; the arrays of
    earlier carves keep the old buffer alive.  Each carve starts at the front
    of the buffer, so the arrays of one carve are valid until the next one:
    the forwards of an evaluation pass, or the steps of a training epoch,
    run one after another and may share an arena, two threads may not."""

    def __init__(self):
        self.buffer = None

    def carve(self, dtype, shapes) -> list[np.ndarray]:
        """Uninitialized C-ordered arrays of the given shapes, laid one after
        another from the front of the buffer."""
        sizes = [math.prod(shape) * np.dtype(dtype).itemsize for shape in shapes]
        starts = np.cumsum([0] + [-(-size // _ALIGN) * _ALIGN for size in sizes])
        if self.buffer is None or starts[-1] > self.buffer.size:
            self.buffer = np.empty(starts[-1], np.uint8)
        return [self.buffer[lo:lo + size].view(dtype).reshape(shape)
                for shape, size, lo in zip(shapes, sizes, starts)]


def _raise_nonfinite(pre: np.ndarray) -> None:
    for name, k in _CHECK_ORDER:
        if not np.isfinite(pre[k]).all():
            raise FloatingPointError(f"non-finite pre-activation in {name} gate")


def _recurrent(p: SLstmParams) -> np.ndarray:
    """R_z, R_o, R_i, R_f stacked as [4, H, d_h, d_h]."""
    return np.stack([getattr(p, "r_" + gate).data for gate in _GATES])


def _per_head(a: np.ndarray, heads: int) -> np.ndarray:
    """A [..., B, D] array as the [..., H, B, d_h] view of its head columns."""
    *lead, rows, d = a.shape
    return a.reshape(*lead, rows, heads, d // heads).swapaxes(-3, -2)


class _Recurrence:
    """The cell folded over successive chunks of token-major rows, carrying
    (h, c, n, m) from one chunk to the next, starting from the zero state.

    The weights are gathered once: the transposed input weights, the biases
    and the transposed head blocks of the recurrent matrices, stacked as
    [4, H, d_h, d_h].  Each step makes one product per head, straight into
    the recurrent-product slab.

    It works in two carved slabs: ``pre`` [4, rows, D] holds the chunk's
    pre-activations, and ``step`` [9, B, D] the recurrent products, a
    temporary and the state (h, c, n, m), which is zeroed here.
    """

    def __init__(self, p: SLstmParams, pre: np.ndarray, step: np.ndarray,
                 stats: StabilizerStats | None):
        self.batch, self.heads, self.stats = step.shape[1], p.num_heads, stats
        self.w = [np.ascontiguousarray(getattr(p, "w_" + gate).data.T) for gate in _GATES]
        self.b = [getattr(p, "b_" + gate).data for gate in _GATES]
        self.r = np.ascontiguousarray(_recurrent(p).swapaxes(-1, -2))
        self.pre, self.rec, self.tmp = pre, step[:4], step[4]
        step[5:].fill(0.0)
        self.h, self.c, self.n, self.m = step[5:]

    def run(self, x: np.ndarray, x_if: np.ndarray, hs: np.ndarray, cells=()) -> None:
        """Fold the cell over the rows of x into hs.

        x feeds the cell-input and output gates, x_if the exponential input
        and forget gates.  The input products fill the pre-activation slab
        before the loop, one matmul per gate straight into its contiguous
        slab, so a single B = 1 token takes the same BLAS path as a per-step
        cell.  Each step adds them to its recurrent product in a contiguous
        [4, B, D] slab and runs in-place ufuncs there.  With ``cells``
        (the rows' cell and normalizer arrays) each token's gates overwrite
        its pre-activations once they are read, and its c and n go to its
        rows, so the pre-activation slab and ``cells`` are the history the
        backward reads; without it the gates overwrite the step's slab and
        c, n are updated in place.
        """
        rows, batch, stats, tmp, m = x.shape[0], self.batch, self.stats, self.tmp, self.m
        pre = self.pre[:, :rows]
        for k, src in enumerate((x, x, x_if, x_if)):
            np.matmul(src, self.w[k], out=pre[k])
            pre[k] += self.b[k]
        rec, rec_heads = self.rec, _per_head(self.rec, self.heads)
        h, c, n = self.h, self.c, self.n
        act = rec
        for lo in range(0, rows, batch):
            now = slice(lo, lo + batch)
            c_prev, n_prev = c, n
            np.matmul(_per_head(h, self.heads), self.r, out=rec_heads)
            rec += pre[:, now]
            if not np.isfinite(rec).all():
                _raise_nonfinite(rec)
            if cells:
                act, c, n = pre[:, now], cells[0][now], cells[1][now]
            z, o, i, f = act
            rec[1] *= 0.5                        # overflow-free logistic
            np.tanh(rec[:2], out=act[:2])
            o *= 0.5
            o += 0.5
            i_tilde, f_tilde = rec[2], rec[3]
            f_tilde += m
            if stats is not None:
                np.subtract(f_tilde, i_tilde, out=tmp)
                stats.min_gap = min(stats.min_gap, float(np.abs(tmp, out=tmp).min()))
            np.maximum(f_tilde, i_tilde, out=m)
            np.subtract(rec[2:], m, out=act[2:])
            np.exp(act[2:], out=act[2:])
            np.multiply(i, z, out=tmp)           # c = f c_prev + i z
            np.multiply(f, c_prev, out=c)
            c += tmp
            np.multiply(f, n_prev, out=n)        # n = f n_prev + i
            n += i
            h = hs[now]                          # h = o c / n
            np.multiply(o, c, out=h)
            h /= n
        # The next chunk starts from this state.  h is copied out of hs,
        # which the next block of a stream overwrites.
        np.copyto(self.h, h)
        self.c, self.n = c, n


def _recurrence_backward(p: SLstmParams, d_hs: np.ndarray, hs: np.ndarray, history,
                         x: np.ndarray, x_if: np.ndarray, batch: int):
    """Backpropagation through time for :class:`_Recurrence`.

    Returns the gradients of x, of x_if, and of the cell weights in
    engine-op input order.  The spent
    history is overwritten instead of allocating fresh arrays: the gates with
    their pre-activation gradients, the cell and normalizer rows with the
    input-path gradients.  The stabilizer m is treated as a constant: h does
    not depend on it mathematically, so the m paths carry no gradient.
    """
    acts, cs, ns = history
    rows, d = hs.shape
    heads = p.num_heads
    blocks = _recurrent(p)
    dh, dc, dn, t1, t2 = (np.zeros((batch, d), dtype=d_hs.dtype) for _ in range(5))
    rec = np.empty((4, batch, d), dtype=d_hs.dtype)
    rec_heads = _per_head(rec, heads)
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
        np.matmul(_per_head(acts[:, now], heads), blocks, out=rec_heads)
        np.sum(rec, axis=0, out=dh)
    d_pre = acts

    weights = [getattr(p, "w_" + gate).data for gate in _GATES]
    d_w = [d_pre[k].T @ src for k, src in enumerate((x, x, x_if, x_if))]
    # Head block k of d_R is d_pre[t, head k]^T h[t-1, head k] summed over t.
    d_r = np.matmul(_per_head(d_pre[:, batch:], heads).swapaxes(-1, -2),
                    _per_head(hs[:-batch], heads))
    d_b = [d_pre[k].sum(axis=0, keepdims=True) for k in range(4)]
    d_x = np.matmul(d_pre[0], weights[0], out=cs)
    d_x_if = np.matmul(d_pre[2], weights[2], out=ns)
    tmp = np.matmul(d_pre[1], weights[1])
    d_x += tmp
    d_x_if += np.matmul(d_pre[3], weights[3], out=tmp)
    return d_x, d_x_if, d_w + list(d_r) + d_b


class _BlockChunks:
    """One block's share of a :class:`Stream`: its chunk buffers, and what
    it carries from one chunk to the next.  That is its recurrence, whose
    state stays in its own step slab, and its normed rows, kept in ``ring``
    after a tail of the previous chunk's last conv_width - 1 normed tokens,
    which the taps read across the seam.  ``done`` counts the rows run so
    far, out of the stream's ``rows``."""

    def __init__(self, w: BlockWeights, stream: "Stream", buffers: list, step, ring):
        self.pre, self.inv_std, self.hs, *rest = buffers
        self.x_if = rest.pop(0) if stream.conv else None
        self.mask = rest.pop(0) if stream.dropout else None
        self.cell = _Recurrence(w.cell, self.pre, step, None)
        # Copied: a reference to the stream, which holds its blocks, is a cycle.
        self.rows, self.tail, self.record = stream.rows, stream.tail, stream.record
        self.history, self.ring, self.done = rest, ring, 0


class Stream:
    """A stack run over ``rows`` token-major rows of the same sequences, in
    successive chunks of whole tokens of at most ``chunk`` rows.

    ``shapes`` lists the buffers :meth:`bind` takes, carved by
    :meth:`Scratch.carve`: a block's chunk buffers (the pre-activation slab,
    the inverse deviations, the hidden rows, then as needed the conv-gated
    rows, the dropout mask and, if it records a tape, the centred, cell and
    normalizer rows), then its step slab and normed rows after their conv
    tail.  Without a tape the blocks share one set of chunk buffers; a
    stream that records gives each block its own, the history it reads."""

    def __init__(self, cfg: BlockConfig, blocks: list[BlockWeights], batch: int,
                 rows: int, chunk: int, dropout: bool = False, record: bool = False):
        d = cfg.d_hidden
        self.weights, self.rows = blocks, rows
        self.conv, self.dropout, self.record = cfg.conv_width > 0, dropout, record
        self.tail = min(rows, (cfg.conv_width - 1) * batch) if self.conv and chunk < rows else 0
        buffers = ([(4, chunk, d), (chunk, 1), (chunk, d)]
                   + [(chunk, d)] * (self.conv + dropout + 3 * record))
        own = [(9, batch, d), (self.tail + chunk, d)]
        self.shapes = (buffers + own) * len(blocks) if record else buffers + own * len(blocks)
        self.per_set = len(buffers)

    def bind(self, arrays) -> None:
        """Give each block its share of ``arrays``, carved for ``shapes``, and the zero state."""
        arrays, self.blocks = iter(arrays), []
        shared = None if self.record else [next(arrays) for _ in range(self.per_set)]
        for w in self.weights:
            buffers = shared or [next(arrays) for _ in range(self.per_set)]
            self.blocks.append(_BlockChunks(w, self, buffers, next(arrays), next(arrays)))


def _block(cfg: BlockConfig, w: BlockWeights, x: Tensor, batch: int,
           training: bool, rng, stats: StabilizerStats | None,
           chunks: _BlockChunks) -> Tensor:
    """Residual block over token-major rows [L*B, D] as one tape node: layer
    norm, causal-conv taps on the input/forget path, the recurrence, the
    projection, dropout and the residual.

    x is the next chunk of whole tokens of the :class:`Stream` whose share
    ``chunks`` is: the block works in its buffers and carries its state on
    to the next chunk.  Without a tape it adds its output into x's rows in
    place; a stream that records runs one chunk, whose buffers are the
    history the backward reads, and the output is a fresh array.  The
    dropout mask is drawn CHUNK_ROWS rows at a time from the one generator,
    whose successive draws continue a single stream, so it equals one draw
    over all rows.
    """
    d, rows = cfg.d_hidden, x.shape[0]
    if x.data.ndim != 2 or x.shape[1] != d:
        raise ShapeError(f"token width {x.shape[-1]} != block width {d}")
    if rows < 1 or batch < 1 or rows % batch:
        raise ShapeError(f"{rows} rows do not hold whole tokens of batch {batch}")
    dropout = training and cfg.dropout_rate > 0.0
    if dropout and rng is None:
        raise ValueError("training with dropout needs an rng")
    kernel = None
    if cfg.conv_width > 0 and w.conv_kernel is not None:
        kernel = w.conv_kernel.data
    # The cell's weights go in the order its backward returns them: W, R, b,
    # each z, o, i, f.
    inputs = ([x] + [getattr(w.cell, f"{kind}_{gate}") for kind in "wrb" for gate in _GATES]
              + [w.ln_gamma, w.ln_beta, w.proj_w] + ([] if kernel is None else [w.conv_kernel]))
    record = chunks.record
    eps = x.data.dtype.type(LN_EPS)
    keep_p = 1.0 - cfg.dropout_rate
    lo, tail, ring, pre = chunks.done, chunks.tail, chunks.ring, chunks.pre
    x_in, inv_std, hs = x.data, chunks.inv_std[:rows], chunks.hs[:rows]
    normed = ring[tail:tail + rows]
    xhat, *cells = [a[:rows] for a in chunks.history] if record else [normed]

    # Layer norm over each row, with eps in the rows' dtype; the squares go
    # through the pre-activation slab, which is free until the recurrence
    # fills it.
    np.subtract(x_in, x_in.mean(axis=1, keepdims=True), out=xhat)
    squares = np.square(xhat, out=pre[0, :rows])
    np.mean(squares, axis=1, keepdims=True, out=inv_std)
    inv_std += eps
    np.sqrt(inv_std, out=inv_std)
    np.divide(1.0, inv_std, out=inv_std)
    xhat *= inv_std
    np.multiply(xhat, w.ln_gamma.data, out=normed)
    normed += w.ln_beta.data

    # Causal depthwise taps: token t gains kernel[j] * normed[t - j] for
    # every tap j <= t, a row shift by j*B added in place, so a zero kernel
    # reduces exactly to the conv-disabled path.  The earlier tokens a tap
    # reads sit right before the chunk's rows in `ring`.
    x_if = normed
    if kernel is not None:
        x_if = np.multiply(normed, kernel[0], out=chunks.x_if[:rows])
        x_if += normed
        for j in range(1, kernel.shape[0]):
            shift = j * batch
            first = max(0, shift - lo)
            if first >= rows:
                break
            # The product goes through the pre-activation slab too.
            x_if[first:] += np.multiply(ring[tail + first - shift:tail + rows - shift],
                                        kernel[j], out=pre[0, first:rows])

    chunks.cell.stats = stats
    chunks.cell.run(normed, x_if, hs, cells)
    # Without a tape the projection goes through the pre-activation slab,
    # spent once the recurrence has run, and the residual sum into x's rows.
    out = np.matmul(hs, w.proj_w.data.T, out=None if record else pre[0, :rows])
    mask = None
    if dropout:
        # Drawn in CHUNK_ROWS-row pieces, never a float64 [rows, D] at once.
        mask = chunks.mask[:rows]
        for part in range(0, rows, CHUNK_ROWS):
            drawn = mask[part:part + CHUNK_ROWS]
            np.less(rng.random(size=drawn.shape), keep_p, out=drawn)
        mask /= keep_p
        out *= mask
    out = np.add(out, x_in, out=out if record else x_in)
    chunks.done += rows
    if tail and chunks.done < chunks.rows:
        ring[:tail] = ring[rows:rows + tail]

    def backward(g):
        dy = g if mask is None else g * mask
        d_proj = dy.T @ hs
        d_hs = dy @ w.proj_w.data
        d_normed, d_x_if, d_cell = _recurrence_backward(w.cell, d_hs, hs, (pre, *cells),
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
                  training: bool, rng, stats: StabilizerStats | None = None,
                  stream: Stream | None = None) -> Tensor:
    """The shared stack over token-major rows [L*B, D]: B independent
    sequences of L tokens, token t in rows t*B .. (t+1)*B.

    Given ``stream``, x is its next chunk of whole tokens, run in the
    stream's buffers.  Without one the rows are one chunk of a stream carved
    from an arena made for the call, and without a tape x is copied first,
    since the blocks then add their output into the rows they run in."""
    if stream is None:
        rows, dtype = x.shape[0], np.result_type(x.data, blocks[0].cell.w_z.data)
        record = T.will_record([x] + [t for w in blocks for _, t, _ in w.named_parameters()])
        stream = Stream(cfg, blocks, batch, rows, rows, training and cfg.dropout_rate > 0.0,
                        record)
        stream.bind(Scratch().carve(dtype, stream.shapes))
        if not record:
            x = Tensor(x.data.copy(), dtype=x.data.dtype.type)
    for w, chunks in zip(blocks, stream.blocks):
        x = _block(cfg, w, x, batch, training, rng, stats, chunks)
    return x
