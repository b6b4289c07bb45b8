"""The composed-op engine the test oracles are written in.

Each function is one differentiable op: a numpy forward and a backward,
recorded through ``mixcast.tensor.custom_op``, the primitive every product
op records through, so a fault in it shows on both sides of an oracle
comparison.  Operands may be tensors, float arrays or python scalars; a
scalar takes the dtype of the tensor beside it.  Binary elementwise ops
broadcast like numpy and sum their gradients back over broadcast axes.
"""

from __future__ import annotations

import numpy as np

from mixcast import tensor as T
from mixcast.tensor import Tensor


def parameter(data, dtype=None) -> Tensor:
    """Leaf tensor that accumulates gradients."""
    return Tensor(data, requires_grad=True, dtype=dtype)


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
        a = T.as_tensor(a)
        b = T.as_tensor(b, like=a)
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
        a = T.as_tensor(a)
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
    a, b = T.as_tensor(a), T.as_tensor(b, like=a)
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
    t = T.as_tensor(t)
    return _reduce(t, axis, keepdims, t.data.sum(axis=axis, keepdims=keepdims),
                   np.ascontiguousarray)


def reduce_mean(t, axis=None, keepdims: bool = False) -> Tensor:
    t = T.as_tensor(t)
    n = t.size if axis is None else t.shape[axis]
    return _reduce(t, axis, keepdims, t.data.mean(axis=axis, keepdims=keepdims),
                   lambda g: g / n)


def reduce_var(t, axis=None, keepdims: bool = False) -> Tensor:
    """Population variance (divisor n) along the axis."""
    t = T.as_tensor(t)
    n = t.size if axis is None else t.shape[axis]
    mu = t.data.mean(axis=axis, keepdims=True)
    return _reduce(t, axis, keepdims, t.data.var(axis=axis, keepdims=keepdims),
                   lambda g: g * 2.0 * (t.data - mu) / n)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [T.as_tensor(t) for t in tensors]
    bounds = np.cumsum([t.shape[axis] for t in tensors])[:-1]
    return T.custom_op(np.concatenate([t.data for t in tensors], axis=axis), tensors,
                       lambda g: np.split(g, bounds, axis=axis))


def slice_axis(t, axis: int, start: int, stop: int) -> Tensor:
    t = T.as_tensor(t)
    idx = (slice(None),) * (axis % t.data.ndim) + (slice(start, stop),)

    def backward(g):
        full = np.zeros_like(t.data)
        full[idx] = g
        return [full]

    return T.custom_op(t.data[idx].copy(), [t], backward)


def reverse(t, axis: int) -> Tensor:
    """Flip along one axis; involutive and elementwise-exact."""
    t = T.as_tensor(t)
    return T.custom_op(np.flip(t.data, axis=axis).copy(), [t],
                       lambda g: [np.flip(g, axis=axis)])


def transpose(t) -> Tensor:
    t = T.as_tensor(t)
    return T.custom_op(t.data.T.copy(), [t], lambda g: [g.T])


def take_rows(t, indices) -> Tensor:
    """Gather rows by index; backward scatter-adds into the source rows."""
    t = T.as_tensor(t)
    idx = np.asarray(indices, dtype=np.intp)

    def backward(g):
        full = np.zeros_like(t.data)
        np.add.at(full, idx, g)
        return [full]

    return T.custom_op(t.data[idx], [t], backward)
