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
inside it is backpropagated through time.  Every reduction a backward makes
(the bias-gradient column sums, the layer norm's row mean) is one ``einsum``
pass, as the forward's row statistics are (:func:`row_moments`).  Gates are
held as slabs ``[4, rows, D]`` in the order z, o, i, f, so each gate of each
token is a contiguous ``[B, D]`` block.  The input products are one matmul
per gate over a whole chunk, hoisted out of the per-token work (z's waits for
the chunk's first live step, see below).

Every run of the stack goes through a :class:`Stream`, which owns the run's
settings (the dropout generator, the stabilizer stats, and whether it
records: it does if a tape is active when it is built) and gives each block a
share that holds everything a chunk of its forward reads and runs its
recurrence.  Its caller hands it successive chunks of whole tokens, or all
its rows as one chunk when it records.  Everything a block carries across a
seam lives on its share: the recurrence state ``(h, c, n, m)``, the rows run
so far and the last ``conv_width - 1`` normed tokens.  Building the stream
carves every block's buffers in one call from a :class:`Scratch` arena, which
the batches of an evaluation pass, or the steps of a training epoch, share,
so they do not fault the same memory in again.  Without a tape the blocks
share one set of chunk buffers; a stream that records gives each block its
own, the history its backward reads.  A block writes its output into a fresh
array, never into its rows.  Dropout masks are drawn ``CHUNK_ROWS`` rows at a
time from the one generator, which continues a single stream.

Recurrent weight matrices are block-diagonal over heads, and only their
diagonal blocks exist: each of ``r_z|r_i|r_f|r_o`` is stored as a
``[heads, d_h, d_h]`` tensor, head ``k`` mapping hidden units
``k*d_h .. (k+1)*d_h`` to the same units.  Every recurrent product, forward,
backward and weight gradient, is a batched product over the heads.
Checkpoints that store the matrices densely are read through
:func:`diagonal_blocks`.

The stabilizer grows by about ``b_f`` per token, so along a long sequence
the input gate ``i = exp(ĩ − m)`` sinks through the subnormal range, where
arithmetic is many times slower.  So before the exponential, every
input-gate argument below F = ½·ln(smallest subnormal) of the dtype (−51.6
in float32, −372.2 in float64) is flushed to −inf, whose exponential is
exactly 0: the gate history holds zeros where it held subnormals, and the
backward's input-gate gradients are exactly 0 there too.  A flushed gate is
below exp(F), about 4e-23 in float32, while n on the stabilized scale stays
at least min(1, exp(ĩ − f̃)) of the first token; so unless f̃ − ĩ there
exceeds about 35 (float32), the gate could not have moved n.  It could move
a c that cancels towards 0, so the flush keeps outputs bit-identical in
practice, not by construction, and the tests hold it to the unflushed path.
A step whose every entry is flushed has i = 0 and f = 1, so it leaves c and
n as they are, and without a tape it skips their update.  Such a dead step
reads no z, so without a tape it neither computes nor checks z̃: every step
makes the o, i and f pre-activations first and z̃ only once it turns out
live, and a chunk makes z's input product at its first live step, so a
chunk with none makes none.  Every pre-activation a step does compute is
checked, so a non-finite z̃ on a dead step goes unreported, as it does not
reach the output, and the outputs are those of the four-gate steps bit for
bit.  The first token is never flushed: there ``n = i`` from the zero
state, so a flushed gate would make ``h`` 0/0.  If the first token's gate
underflows by itself (f̃ − ĩ beyond about 104 in float32), the run stops
with a ``FloatingPointError`` that names the normalizer.

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
    def uniform(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    params = {}
    for name in ("w_z", "w_i", "w_f", "w_o"):
        params[name] = Tensor(uniform((d_hidden, d_in), d_in))
    for name in ("r_z", "r_i", "r_f", "r_o"):
        dense = uniform((d_hidden, d_hidden), d_hidden // num_heads)
        params[name] = Tensor(diagonal_blocks(dense, num_heads))
    for name in ("b_z", "b_i", "b_o"):
        params[name] = Tensor(np.zeros((1, d_hidden)))
    params["b_f"] = Tensor(np.ones((1, d_hidden)))
    return SLstmParams(num_heads=num_heads, **params)


@dataclass
class StabilizerStats:
    """Stabilizer health gathered from the forward passes it is handed to.

    ``min_gap`` is the smallest |(f̃ + m_prev) − ĩ| seen: how close the
    running max came to switching operands, where its derivative jumps.
    ``flushed_entries`` of the ``gate_entries`` input-gate entries seen were
    flushed to exactly 0 (see the module docstring), and ``first_dead_token``
    is the first token at which a recurrence flushed every entry of its step,
    or None."""

    min_gap: float = math.inf
    gate_entries: int = 0
    flushed_entries: int = 0
    first_dead_token: int | None = None

    def count_flushed(self, token: int, entries: int, flushed: int) -> None:
        """Count one step's input gate: ``flushed`` of its ``entries``."""
        self.gate_entries += entries
        self.flushed_entries += flushed
        if flushed == entries and (self.first_dead_token is None or token < self.first_dead_token):
            self.first_dead_token = token


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
    ln_gamma = Tensor(np.ones((1, d)))
    ln_beta = Tensor(np.zeros((1, d)))
    bound = 1.0 / np.sqrt(d)
    proj_w = Tensor(rng.uniform(-bound, bound, size=(d, d)))
    conv = None
    if cfg.conv_width > 0:
        cbound = 1.0 / np.sqrt(cfg.conv_width)
        conv = Tensor(rng.uniform(-cbound, cbound, size=(cfg.conv_width, d)))
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

# An input-gate argument ĩ − m below this multiple of ln(smallest subnormal)
# of its dtype (−51.6 in float32, −372.2 in float64) is flushed, so that its
# gate is exactly 0 rather than subnormal.
_FLUSH = 0.5

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


def row_moments(x: np.ndarray, centred: np.ndarray, mean: np.ndarray, var: np.ndarray) -> None:
    """Each row's mean of x into ``mean`` [rows, 1], x minus it into
    ``centred``, and the mean of the centred squares into ``var`` [rows, 1],
    which may be ``mean`` itself.

    Each statistic is one einsum pass, which reduces every row on its own:
    a row's result does not depend on how many rows share the call, or where
    they sit in memory, so a forward streamed in chunks normalizes each row
    exactly as a forward over all of them does.  A reduction that does
    depend on the row count (a BLAS ``x @ ones`` does) would break that."""
    width = x.shape[1]
    np.einsum("ij->i", x, out=mean[:, 0])
    mean /= width
    np.subtract(x, mean, out=centred)
    np.einsum("ij,ij->i", centred, centred, out=var[:, 0])
    var /= width


def _recurrent(p: SLstmParams) -> np.ndarray:
    """R_z, R_o, R_i, R_f stacked as [4, H, d_h, d_h]."""
    return np.stack([getattr(p, "r_" + gate).data for gate in _GATES])


def _per_head(a: np.ndarray, heads: int) -> np.ndarray:
    """A [..., B, D] array as the [..., H, B, d_h] view of its head columns."""
    *lead, rows, d = a.shape
    return a.reshape(*lead, rows, heads, d // heads).swapaxes(-3, -2)


class _BlockChunks:
    """One block's share of a :class:`Stream`: all one chunk of its forward
    reads, and all the block carries from one chunk to the next.

    It holds the block's weights, the batch, its conv kernel, the keep
    probability and ``rng`` (None without conv or masks), the ``stats`` and
    its chunk buffers, with the ``history`` its stream carved it if it
    records (else empty).  The cell's weights are gathered once: the
    transposed input weights, the biases, and the transposed head blocks of
    the recurrent matrices stacked as [4, H, d_h, d_h], so each step of
    :meth:`run` makes its o, i and f products in one batched product over
    the heads, and z's in another, straight into the recurrent-product slab.

    Across a seam it carries the recurrence from the zero state, in the step
    slab [9, B, D] (the recurrent products ``rec``, a temporary ``tmp`` and
    the state h, c, n, m); its normed rows, in ``ring`` after a ``tail`` of
    the previous chunk's last conv_width - 1 normed tokens, which the taps
    read across the seam; and ``done``, the rows run, of ``rows``.
    """

    def __init__(self, w: BlockWeights, batch: int, kernel, keep_p: float, rng,
                 stats: StabilizerStats | None, buffers: list, step, ring, rows: int, tail: int):
        self.w, self.batch, self.kernel, self.keep_p = w, batch, kernel, keep_p
        self.rng, self.stats, self.rows, self.tail = rng, stats, rows, tail
        self.pre, self.inv_std, self.hs, *rest = buffers
        self.x_if = rest.pop(0) if kernel is not None else None
        self.mask = rest.pop(0) if rng is not None else None
        self.history, self.ring, self.done = rest, ring, 0
        p, self.heads = w.cell, w.cell.num_heads
        self.w_in = [np.ascontiguousarray(getattr(p, "w_" + gate).data.T) for gate in _GATES]
        self.b = [getattr(p, "b_" + gate).data for gate in _GATES]
        self.r = np.ascontiguousarray(_recurrent(p).swapaxes(-1, -2))
        # The output gate is the logistic (1 + tanh(õ / 2)) / 2; halving its
        # weights and bias here gives õ / 2 exactly, in place of õ.
        self.w_in[1], self.b[1] = self.w_in[1] * 0.5, self.b[1] * 0.5
        self.r[1] *= 0.5
        self.floor = step.dtype.type(_FLUSH * math.log(np.finfo(step.dtype).smallest_subnormal))
        self.rec, self.tmp = step[:4], step[4]
        step[5:].fill(0.0)
        self.h, self.c, self.n, self.m = step[5:]

    def _cell_input(self, x: np.ndarray, h_heads: np.ndarray, now: slice, first: bool) -> None:
        """z̃ of the step at rows ``now`` into the recurrent-product slab, from
        the per-head view of the previous step's h; if ``first`` (no earlier
        step of the chunk made z̃), z's input product for the whole chunk x
        before it, with the call shape of the other gates'."""
        pre = self.pre[0, :x.shape[0]]
        if first:
            np.matmul(x, self.w_in[0], out=pre)
            pre += self.b[0]
        np.matmul(h_heads, self.r[0], out=_per_head(self.rec[0], self.heads))
        self.rec[0] += pre[now]

    def run(self, x: np.ndarray, x_if: np.ndarray, hs: np.ndarray, cells=()) -> None:
        """Fold the cell over the rows of x into hs.

        x feeds the cell-input and output gates, x_if the exponential input
        and forget gates.  The input products of o, i and f fill the
        pre-activation slab before the loop, one matmul per gate straight
        into its contiguous slab, so a single B = 1 token takes the same BLAS
        path as a per-step cell.  Each step adds them to its recurrent
        products in a contiguous [4, B, D] slab and runs in-place ufuncs
        there.  With ``cells`` (the rows' cell and normalizer arrays) each
        token's gates overwrite its pre-activations once they are read, and
        its c and n go to its rows, so the pre-activation slab and ``cells``
        are the history the backward reads; without it the gates overwrite
        the step's slab and c, n are updated in place.  The input gate is
        flushed as the module docstring says, from the recurrence's second
        token on.  The rows start at token ``done // batch``; the caller
        advances ``done``.

        Every step makes o, i and f first, one batched product over the
        heads, and checks them; then m, i and the flush.  Only a live step
        goes on to z̃, whose input product the chunk's first live step makes
        for the whole chunk.  Without a tape a step may be dead, and then it
        makes no z̃.
        """
        rows, batch, stats, tmp, m = x.shape[0], self.batch, self.stats, self.tmp, self.m
        pre = self.pre[:, :rows]
        for k, src in enumerate((x, x_if, x_if), 1):
            np.matmul(src, self.w_in[k], out=pre[k])
            pre[k] += self.b[k]
        heads, r_oif, floor, start = self.heads, self.r[1:], self.floor, self.done // batch
        rec = self.rec
        rec_oif, rec_heads_oif = rec[1:], _per_head(rec, heads)[1:]
        z_tilde, rec_zo, rec_o, i_tilde, f_tilde = rec[0], rec[:2], rec[1], rec[2], rec[3]
        h, c, n, first = self.h, self.c, self.n, True
        z, o, i, f = act = rec
        act_zo, act_if = act[:2], act[2:]
        with np.errstate(divide="ignore"):
            for lo in range(0, rows, batch):
                now, token = slice(lo, lo + batch), start + lo // batch
                c_prev, n_prev, h_heads = c, n, _per_head(h, heads)
                np.matmul(h_heads, r_oif, out=rec_heads_oif)
                rec_oif += pre[1:, now]
                if not np.isfinite(rec_oif).all():
                    # Named as a step of all four gates would name it.
                    self._cell_input(x, h_heads, now, first)
                    _raise_nonfinite(rec)
                if cells:
                    act, c, n = pre[:, now], cells[0][now], cells[1][now]
                    z, o, i, f = act
                    act_zo, act_if = act[:2], act[2:]
                f_tilde += m
                if stats is not None:
                    np.subtract(f_tilde, i_tilde, out=tmp)
                    stats.min_gap = min(stats.min_gap, float(np.abs(tmp, out=tmp).min()))
                np.maximum(f_tilde, i_tilde, out=m)
                np.subtract(i_tilde, m, out=i)
                # A step whose every entry is flushed has i = 0 and f = 1, so
                # without a history to write, c and n stay as they are.
                flush = token and i.min() < floor
                dead = flush and not cells and i.max() < floor
                if not dead:
                    self._cell_input(x, h_heads, now, first)
                    first = False
                    # o, i and f are finite, so only z̃ can fail the check.
                    if not np.isfinite(z_tilde).all():
                        _raise_nonfinite(rec)
                flushed = i.size if dead else 0
                if flush and not dead:
                    # A dead argument is divided by 0: -inf, whose exp is 0.
                    np.greater_equal(i, floor, out=tmp)
                    i /= tmp
                    if stats is not None:
                        flushed = i.size - np.count_nonzero(tmp)
                if stats is not None:
                    stats.count_flushed(token, i.size, flushed)
                if dead:
                    np.tanh(rec_o, out=o)
                else:
                    np.tanh(rec_zo, out=act_zo)  # õ is halved: overflow-free logistic
                    np.subtract(f_tilde, m, out=f)
                    np.exp(act_if, out=act_if)
                    np.multiply(i, z, out=tmp)   # c = f c_prev + i z
                    np.multiply(f, c_prev, out=c)
                    c += tmp
                    np.multiply(f, n_prev, out=n)  # n = f n_prev + i
                    n += i
                    if not token and not n.all():
                        raise FloatingPointError(
                            "normalizer underflow at the first token: the input gate is 0 "
                            "where the forget pre-activation exceeds the input one by too "
                            "much, so h = o c / n is 0 / 0")
                o *= 0.5
                o += 0.5
                h = hs[now]                      # h = o c / n
                np.multiply(o, c, out=h)
                h /= n
        # The next chunk starts from this state.  h is copied out of hs,
        # which the next block of a stream overwrites.
        np.copyto(self.h, h)
        self.c, self.n = c, n


def _recurrence_backward(p: SLstmParams, d_hs: np.ndarray, hs: np.ndarray, history,
                         x: np.ndarray, x_if: np.ndarray, batch: int):
    """Backpropagation through time for :meth:`_BlockChunks.run`'s one chunk.

    Returns the gradients of x, of x_if, and of the cell weights in
    engine-op input order.  The spent
    history is overwritten instead of allocating fresh arrays: the gates with
    their pre-activation gradients, the cell and normalizer rows with the
    input-path gradients.  The stabilizer m is treated as a constant: h does
    not depend on it mathematically, so the m paths carry no gradient.  The
    four bias gradients, the column sums of the gate-gradient slab, are one
    einsum pass over it.
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
        np.add(rec[0], rec[1], out=dh)       # the gates' sum, in gate order
        dh += rec[2]
        dh += rec[3]
    d_pre = acts

    weights = [getattr(p, "w_" + gate).data for gate in _GATES]
    d_w = [d_pre[k].T @ src for k, src in enumerate((x, x, x_if, x_if))]
    # Head block k of d_R is d_pre[t, head k]^T h[t-1, head k] summed over t.
    d_r = np.matmul(_per_head(d_pre[:, batch:], heads).swapaxes(-1, -2),
                    _per_head(hs[:-batch], heads))
    d_b = list(np.einsum("kij->kj", d_pre)[:, None])
    d_x = np.matmul(d_pre[0], weights[0], out=cs)
    d_x_if = np.matmul(d_pre[2], weights[2], out=ns)
    tmp = np.matmul(d_pre[1], weights[1])
    d_x += tmp
    d_x_if += np.matmul(d_pre[3], weights[3], out=tmp)
    return d_x, d_x_if, d_w + list(d_r) + d_b


class Stream:
    """A stack run over ``rows`` token-major rows of the same sequences, in
    successive chunks of whole tokens of at most ``chunk`` rows, with every
    block's buffers carved in one call from ``scratch``.  Given ``rng`` the
    blocks draw dropout masks from it, and ``stats`` gathers the stabilizer's
    health.  One built while a tape is active records, in one chunk.

    A block's chunk buffers are the pre-activation slab, the inverse
    deviations, the hidden rows, then as needed the conv-gated rows, the
    dropout mask and, under a tape, the centred, cell and normalizer rows.
    Without a tape the blocks share one set, carved first; a stream that
    records carves each block's share its own, the history it reads, and a
    share records exactly when it was carved one.  Each block's step slab
    and its normed rows after their conv tail come after them; a block's
    input and output rows are never carved."""

    def __init__(self, cfg: BlockConfig, blocks: list[BlockWeights], batch: int, rows: int,
                 chunk: int, scratch: Scratch, dtype, rng=None,
                 stats: StabilizerStats | None = None):
        d, conv, record = cfg.d_hidden, cfg.conv_width > 0, T.will_record()
        tail = min(rows, (cfg.conv_width - 1) * batch) if conv and chunk < rows else 0
        buffers = ([(4, chunk, d), (chunk, 1), (chunk, d)]
                   + [(chunk, d)] * (conv + (rng is not None) + 3 * record))
        own = [(9, batch, d), (tail + chunk, d)]
        arrays = iter(scratch.carve(dtype, (buffers + own) * len(blocks) if record
                                    else buffers + own * len(blocks)))
        shared = None if record else [next(arrays) for _ in buffers]
        self.blocks = [_BlockChunks(w, batch, w.conv_kernel.data if conv else None,
                                    1.0 - cfg.dropout_rate, rng, stats,
                                    shared or [next(arrays) for _ in buffers], next(arrays),
                                    next(arrays), rows, tail) for w in blocks]


def _block(chunks: _BlockChunks, x: Tensor) -> Tensor:
    """Residual block over token-major rows [L*B, D] as one tape node: layer
    norm, causal-conv taps on the input/forget path, the recurrence, the
    projection, dropout and the residual.

    x is the next chunk of whole tokens of the :class:`Stream` that built
    ``chunks``, the block's share, which holds everything else the block
    reads and runs its recurrence: the block works in the share's buffers,
    and the share carries its state on to the next chunk.  A stream that
    records runs one chunk, whose buffers are the history the backward
    reads.  The output is a fresh array, and x's rows are only read.  Given
    an rng, the dropout mask is drawn CHUNK_ROWS rows at a time from it,
    whose successive draws continue a single stream, so it equals one draw
    over all rows.
    """
    w, batch, kernel, rng = chunks.w, chunks.batch, chunks.kernel, chunks.rng
    d, rows = w.proj_w.shape[0], x.shape[0]
    if x.data.ndim != 2 or x.shape[1] != d:
        raise ShapeError(f"token width {x.shape[-1]} != block width {d}")
    if rows < 1 or batch < 1 or rows % batch:
        raise ShapeError(f"{rows} rows do not hold whole tokens of batch {batch}")
    # The cell's weights go in the order its backward returns them: W, R, b,
    # each z, o, i, f.
    inputs = ([x] + [getattr(w.cell, f"{kind}_{gate}") for kind in "wrb" for gate in _GATES]
              + [w.ln_gamma, w.ln_beta, w.proj_w] + ([] if kernel is None else [w.conv_kernel]))
    eps = x.data.dtype.type(LN_EPS)
    lo, tail, ring, pre = chunks.done, chunks.tail, chunks.ring, chunks.pre
    x_in, inv_std, hs = x.data, chunks.inv_std[:rows], chunks.hs[:rows]
    normed = ring[tail:tail + rows]
    xhat, *cells = [a[:rows] for a in chunks.history] or [normed]

    # Layer norm over each row, with eps in the rows' dtype: the row
    # statistics take one einsum pass each (row_moments), the mean and then
    # the variance in the inverse-deviation buffer.
    row_moments(x_in, xhat, inv_std, inv_std)
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

    chunks.run(normed, x_if, hs, cells)
    out = hs @ w.proj_w.data.T
    mask = None
    if rng is not None:
        # Drawn in CHUNK_ROWS-row pieces, never a float64 [rows, D] at once.
        mask = chunks.mask[:rows]
        for part in range(0, rows, CHUNK_ROWS):
            drawn = mask[part:part + CHUNK_ROWS]
            np.less(rng.random(size=drawn.shape), chunks.keep_p, out=drawn)
        mask /= chunks.keep_p
        out *= mask
    out += x_in
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
        d_beta = np.einsum("ij->j", d_normed)[None]
        d_normed *= w.ln_gamma.data            # now d xhat
        mean = np.einsum("ij->i", d_normed)[:, None]
        mean /= d
        d_x = d_normed - mean
        proj = np.einsum("ij,ij->i", d_normed, xhat)[:, None]
        proj /= d
        d_x -= np.multiply(xhat, proj, out=d_normed)
        d_x *= inv_std
        d_x += g
        return [d_x] + d_cell + [d_gamma, d_beta, d_proj] + d_kernel

    return T.custom_op(out, inputs, backward)


def _stack_tokens(stream: Stream, x: Tensor) -> Tensor:
    """The shared stack over x, the next chunk of whole tokens of ``stream``,
    run in its buffers: token t of the B sequences is rows t*B .. (t+1)*B."""
    for chunks in stream.blocks:
        x = _block(chunks, x)
    return x
