"""The composed-op engine the test oracles are written in.

Each function is one differentiable op: a numpy forward and a backward,
recorded through ``mixcast.tensor.custom_op``, the primitive every product
op records through, so a fault in it shows on both sides of an oracle
comparison.  Operands may be tensors, float arrays or python scalars
(``lift``); a scalar takes the dtype of the tensor beside it.  Binary
elementwise ops broadcast like numpy and sum their gradients back over
broadcast axes.

``finite_difference_errors`` is the per-entry gradient oracle: every leaf
entry's analytic gradient against central finite differences, for the tests
that bound gradients entry by entry.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from mixcast import tensor as T
from mixcast.gradcheck import GradcheckError
from mixcast.tensor import Tensor


def parameter(data, dtype=None) -> Tensor:
    """A leaf tensor: like every leaf an op under a tape reads, it keeps a
    gradient after the backward."""
    return Tensor(data, dtype=dtype)


def lift(value, like: Tensor | None = None) -> Tensor:
    """An operand as a Tensor: float arrays keep their dtype, python scalars
    and lists adopt the dtype of ``like`` (else the default dtype)."""
    if isinstance(value, Tensor):
        return value
    if isinstance(value, np.ndarray) and value.dtype.kind == "f":
        return Tensor(value, dtype=value.dtype.type)
    return Tensor(value, dtype=like.data.dtype.type if like is not None else T.default_dtype())


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient over the axes the forward broadcast."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def _binary(fwd, da, db):
    """Elementwise op of two operands; da and db map (g, x, y) to each
    operand's gradient before un-broadcasting."""
    def op(a, b) -> Tensor:
        a = lift(a)
        b = lift(b, like=a)
        x, y = a.data, b.data
        return T.custom_op(np.asarray(fwd(x, y)), [a, b], lambda g: [
            _unbroadcast(da(g, x, y), a.shape), _unbroadcast(db(g, x, y), b.shape)])
    return op


add = _binary(np.add, lambda g, x, y: g, lambda g, x, y: g)
sub = _binary(np.subtract, lambda g, x, y: g, lambda g, x, y: -g)
mul = _binary(np.multiply, lambda g, x, y: g * y, lambda g, x, y: g * x)
# Ties route the whole gradient to the first operand.
max2 = _binary(np.maximum, lambda g, x, y: g * (x >= y), lambda g, x, y: g * (x < y))


def _quotient(x, y):
    with np.errstate(divide="ignore", invalid="ignore"):
        return x / y


# Division by exact zero propagates Inf instead of raising.
div = _binary(_quotient, lambda g, x, y: g / y, lambda g, x, y: -g * x / (y * y))


def _unary(fwd, dfn):
    """Elementwise op of one operand; dfn maps (g, x, out) to its gradient."""
    def op(a) -> Tensor:
        a = lift(a)
        out = np.asarray(fwd(a.data))
        return T.custom_op(out, [a], lambda g: [dfn(g, a.data, out)])
    return op


tanh = _unary(np.tanh, lambda g, x, o: g * (1.0 - o * o))
# Overflow-free logistic.
sigmoid = _unary(lambda x: 0.5 * np.tanh(0.5 * x) + 0.5, lambda g, x, o: g * o * (1.0 - o))
exp = _unary(np.exp, lambda g, x, o: g * o)
sqrt = _unary(np.sqrt, lambda g, x, o: g * 0.5 / o)
# Subgradient 0 at exact zeros.
absval = _unary(np.abs, lambda g, x, o: g * np.sign(x))


def matmul(a, b) -> Tensor:
    """Matrix product of 2-D tensors; backward is g@bᵀ / aᵀ@g."""
    a, b = lift(a), lift(b, like=a)
    return T.custom_op(a.data @ b.data, [a, b], lambda g: [g @ b.data.T, a.data.T @ g])


def _reduce(t, axis, keepdims, data, dfn) -> Tensor:
    """A reduction over one axis (or all); dfn maps the output gradient,
    broadcast back over the input, to the input's gradient."""
    def backward(g):
        if axis is None:
            g = g.reshape(())
        elif not keepdims:
            g = np.expand_dims(g, axis)
        return [dfn(np.broadcast_to(g, t.shape))]

    return T.custom_op(np.asarray(data), [t], backward)


def reduce_sum(t, axis=None, keepdims: bool = False) -> Tensor:
    t = lift(t)
    return _reduce(t, axis, keepdims, t.data.sum(axis=axis, keepdims=keepdims),
                   np.ascontiguousarray)


def reduce_mean(t, axis=None, keepdims: bool = False) -> Tensor:
    t = lift(t)
    n = t.size if axis is None else t.shape[axis]
    return _reduce(t, axis, keepdims, t.data.mean(axis=axis, keepdims=keepdims),
                   lambda g: g / n)


def reduce_var(t, axis=None, keepdims: bool = False) -> Tensor:
    """Population variance (divisor n) along the axis."""
    t = lift(t)
    n = t.size if axis is None else t.shape[axis]
    mu = t.data.mean(axis=axis, keepdims=True)
    return _reduce(t, axis, keepdims, t.data.var(axis=axis, keepdims=keepdims),
                   lambda g: g * 2.0 * (t.data - mu) / n)


def reshape(t, shape) -> Tensor:
    """Same entries in a new shape; a contiguous input is viewed, not copied."""
    t = lift(t)
    return T.custom_op(t.data.reshape(shape), [t], lambda g: [g.reshape(t.shape)])


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [lift(t) for t in tensors]
    bounds = np.cumsum([t.shape[axis] for t in tensors])[:-1]
    return T.custom_op(np.concatenate([t.data for t in tensors], axis=axis), tensors,
                       lambda g: np.split(g, bounds, axis=axis))


def slice_axis(t, axis: int, start: int, stop: int) -> Tensor:
    t = lift(t)
    idx = (slice(None),) * (axis % t.data.ndim) + (slice(start, stop),)

    def backward(g):
        full = np.zeros_like(t.data)
        full[idx] = g
        return [full]

    return T.custom_op(t.data[idx].copy(), [t], backward)


def reverse(t, axis: int) -> Tensor:
    """Flip along one axis; involutive and elementwise-exact."""
    t = lift(t)
    return T.custom_op(np.flip(t.data, axis=axis).copy(), [t],
                       lambda g: [np.flip(g, axis=axis)])


def transpose(t) -> Tensor:
    t = lift(t)
    return T.custom_op(t.data.T.copy(), [t], lambda g: [g.T])


def take_rows(t, indices) -> Tensor:
    """Gather rows by index; backward scatter-adds into the source rows."""
    t = lift(t)
    idx = np.asarray(indices, dtype=np.intp)

    def backward(g):
        full = np.zeros_like(t.data)
        np.add.at(full, idx, g)
        return [full]

    return T.custom_op(t.data[idx], [t], backward)


def finite_difference_errors(
    f: Callable[[], Tensor],
    leaves: Iterable[Tensor],
    step: float = 1e-5,
) -> list[np.ndarray]:
    """Per-entry gradient errors of f against central finite differences.

    For each leaf scalar the analytic gradient is compared with
    (f(θ+h) − f(θ−h)) / 2h; the reported error is relative except when both
    magnitudes fall below 1e-8, where it is absolute.
    """
    leaves = list(leaves)
    for leaf in leaves:
        leaf.zero_grad()
    with T.Tape() as tape:
        loss = f()
        tape.backward(loss)
    analytic = [
        np.zeros_like(leaf.data) if leaf.grad is None else np.asarray(leaf.grad)
        for leaf in leaves
    ]

    def probe(flat: np.ndarray, k: int, i: int, value) -> float:
        """f with entry i of leaf k (``flat``) set to value, then restored.
        A non-finite loss, or an op's FloatingPointError on the way to one,
        names the entry."""
        saved = flat[i]
        flat[i] = value
        try:
            loss = float(f().data.reshape(-1)[0])
        except FloatingPointError as exc:
            raise GradcheckError(f"non-finite loss while probing leaf {k} entry {i}") from exc
        finally:
            flat[i] = saved
        if not np.isfinite(loss):
            raise GradcheckError(f"non-finite loss while probing leaf {k} entry {i}")
        return loss

    errors = []
    for k, leaf in enumerate(leaves):
        flat = leaf.data.reshape(-1)
        err = np.zeros(flat.size, dtype=np.float64)
        a_flat = analytic[k].reshape(-1)
        for i in range(flat.size):
            up = probe(flat, k, i, flat[i] + step)
            down = probe(flat, k, i, flat[i] - step)
            numeric = (up - down) / (2.0 * step)
            a = float(a_flat[i])
            denom = max(abs(a), abs(numeric))
            err[i] = abs(a - numeric) if denom < 1e-8 else abs(a - numeric) / denom
        errors.append(err.reshape(leaf.shape))
    return errors
