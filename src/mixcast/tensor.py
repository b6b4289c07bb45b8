"""Dense-array engine with reverse-mode automatic differentiation.

Tensors wrap row-major numpy arrays (rank 0, 1, or 2).  Operations executed
while a :class:`Tape` is active record backward rules onto it; calling
``backward`` once per tape accumulates gradients into every ``requires_grad``
leaf.  Tensors are treated as immutable once they participate in a tape.

Two precisions are supported: 32-bit scalars for ordinary runs and 64-bit for
gradient checks and other oracle-grade computations (see :func:`precision`).
A tape must stay on the thread that created it; independent tapes may run
concurrently against shared read-only tensors.  The default dtype is per
thread, like the tape stack: every thread starts at 32 bits.
"""

from __future__ import annotations

import contextlib
import os
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "ShapeError",
    "GradcheckError",
    "precision",
    "default_dtype",
    "as_tensor",
    "parameter",
    "matmul",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "tanh",
    "sigmoid",
    "exp",
    "sqrt",
    "absval",
    "max2",
    "reduce_sum",
    "reduce_mean",
    "reduce_var",
    "concat",
    "slice_axis",
    "reverse",
    "transpose",
    "take_rows",
    "reshape",
    "will_record",
    "custom_op",
    "backward",
    "finite_difference_errors",
    "finite_difference_check",
]


class ShapeError(ValueError):
    """Raised when operand shapes violate an operation's contract."""


class GradcheckError(RuntimeError):
    """Raised when a finite-difference probe hits a non-finite value."""


# Debug builds verify that forward ops keep finite inputs finite.
DEBUG_CHECKS = os.environ.get("MIXCAST_DEBUG", "") not in ("", "0")

_state = threading.local()


def _tape_stack() -> list:
    stack = getattr(_state, "tapes", None)
    if stack is None:
        stack = []
        _state.tapes = stack
    return stack


def _active_tape():
    stack = _tape_stack()
    return stack[-1] if stack else None


def default_dtype():
    """The dtype of newly created tensors on the calling thread."""
    return getattr(_state, "dtype", np.float32)


@contextlib.contextmanager
def precision(dtype):
    """Temporarily switch the dtype used for tensors this thread creates."""
    prev = default_dtype()
    _state.dtype = np.dtype(dtype).type
    try:
        yield
    finally:
        _state.dtype = prev


class Tensor:
    """Shape-tagged numeric array participating in reverse-mode differentiation."""

    __slots__ = ("data", "requires_grad", "grad", "_tape")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype or default_dtype())
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._tape = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # Arithmetic sugar; scalars are lifted to constants of matching dtype.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return reduce_mean(self, axis, keepdims)

    def var_pop(self, axis=None, keepdims=False):
        return reduce_var(self, axis, keepdims)


class Tape:
    """Ordered record of executed operations (define-by-run).

    Node order is a valid topological order of the computation.  ``backward``
    may be called exactly once; the tape is rebuilt on every forward pass.
    """

    __slots__ = ("_nodes", "_used")

    def __init__(self):
        self._nodes: list = []
        self._used = False

    def __enter__(self):
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        stack = _tape_stack()
        assert stack and stack[-1] is self
        stack.pop()
        return False

    def __len__(self):
        return len(self._nodes)

    def backward(self, loss: Tensor) -> None:
        backward(self, loss)


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every requires_grad leaf of the tape."""
    if tape._used:
        raise RuntimeError("backward was already called on this tape")
    if loss.size != 1:
        raise ShapeError(f"loss must be a scalar, got shape {loss.shape}")
    if loss._tape is not tape:
        raise RuntimeError("loss was not produced on this tape")
    tape._used = True
    loss.grad = np.ones_like(loss.data)
    for out, bwd in reversed(tape._nodes):
        g = out.grad
        if g is not None:
            bwd(g)
    tape._nodes = []


def as_tensor(value, like: Tensor | None = None) -> Tensor:
    """Lift to a Tensor: float arrays keep their dtype, python scalars and
    lists adopt the operand's (or the default) dtype."""
    if isinstance(value, Tensor):
        return value
    if isinstance(value, np.ndarray) and value.dtype.kind == "f":
        return Tensor(value, dtype=value.dtype.type)
    dtype = like.data.dtype.type if like is not None else default_dtype()
    return Tensor(value, dtype=dtype)


def parameter(data, dtype=None) -> Tensor:
    """Leaf tensor that accumulates gradients."""
    return Tensor(data, requires_grad=True, dtype=dtype)


def _record(out: Tensor, inputs: Sequence[Tensor], bwd: Callable) -> Tensor:
    out.requires_grad = any(t.requires_grad for t in inputs)
    tape = _active_tape()
    if tape is not None and out.requires_grad:
        out._tape = tape
        tape._nodes.append((out, bwd))
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g.copy() if isinstance(g, np.ndarray) and g.base is not None else np.asarray(g)
    else:
        t.grad = t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward op."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def _check_elementwise(sa: tuple, sb: tuple) -> None:
    """Equal shapes, or one operand acting as a scalar or per-row/per-column
    vector (any rank<=2 broadcast numpy accepts)."""
    if sa == sb:
        return
    if len(sa) > 2 or len(sb) > 2:
        raise ShapeError(f"elementwise ops are defined up to rank 2, got {sa} and {sb}")
    try:
        np.broadcast_shapes(sa, sb)
    except ValueError:
        raise ShapeError(f"shapes {sa} and {sb} are not elementwise-compatible") from None


def _debug_finite(out: Tensor, *inputs: Tensor) -> None:
    if DEBUG_CHECKS and not np.isfinite(out.data).all():
        if all(np.isfinite(t.data).all() for t in inputs):
            raise FloatingPointError("non-finite output from finite inputs")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of 2-D tensors; backward is g@bᵀ / aᵀ@g."""
    a, b = as_tensor(a), as_tensor(b, like=a)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul expects [m,k]@[k,n], got {a.shape} and {b.shape}")
    out = Tensor(a.data @ b.data, dtype=a.data.dtype)
    _debug_finite(out, a, b)

    def bwd(g):
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    return _record(out, (a, b), bwd)


def _binary(a, b, fwd, da, db) -> Tensor:
    a = as_tensor(a)
    b = as_tensor(b, like=a)
    _check_elementwise(a.shape, b.shape)
    out = Tensor(fwd(a.data, b.data), dtype=np.result_type(a.data, b.data).type)
    _debug_finite(out, a, b)

    def bwd(g):
        _accumulate(a, _unbroadcast(da(g, a.data, b.data, out.data), a.shape))
        _accumulate(b, _unbroadcast(db(g, a.data, b.data, out.data), b.shape))

    return _record(out, (a, b), bwd)


def add(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x + y, lambda g, x, y, o: g, lambda g, x, y, o: g)


def sub(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x - y, lambda g, x, y, o: g, lambda g, x, y, o: -g)


def mul(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x * y, lambda g, x, y, o: g * y, lambda g, x, y, o: g * x)


def div(a, b) -> Tensor:
    """Elementwise quotient.  Division by exact zero propagates Inf instead
    of raising."""
    a = as_tensor(a)
    b = as_tensor(b, like=a)
    _check_elementwise(a.shape, b.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        data = a.data / b.data
    out = Tensor(data, dtype=np.result_type(a.data, b.data).type)

    def bwd(g):
        _accumulate(a, _unbroadcast(g / b.data, a.shape))
        _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _record(out, (a, b), bwd)


def max2(a, b) -> Tensor:
    """Elementwise maximum; ties route the whole gradient to the first operand."""
    return _binary(
        a,
        b,
        np.maximum,
        lambda g, x, y, o: g * (x >= y),
        lambda g, x, y, o: g * (x < y),
    )


def _unary(a, fwd, dfn) -> Tensor:
    a = as_tensor(a)
    out = Tensor(fwd(a.data), dtype=a.data.dtype)
    _debug_finite(out, a)

    def bwd(g):
        _accumulate(a, dfn(g, a.data, out.data))

    return _record(out, (a,), bwd)


def neg(a) -> Tensor:
    return _unary(a, lambda x: -x, lambda g, x, o: -g)


def tanh(a) -> Tensor:
    return _unary(a, np.tanh, lambda g, x, o: g * (1.0 - o * o))


def sigmoid(a) -> Tensor:
    def fwd(x):
        return 0.5 * np.tanh(0.5 * x) + 0.5  # overflow-free logistic

    return _unary(a, fwd, lambda g, x, o: g * o * (1.0 - o))


def exp(a) -> Tensor:
    return _unary(a, np.exp, lambda g, x, o: g * o)


def sqrt(a) -> Tensor:
    return _unary(a, np.sqrt, lambda g, x, o: g * 0.5 / o)


def absval(a) -> Tensor:
    """|x| with subgradient 0 at exact zeros."""
    return _unary(a, np.abs, lambda g, x, o: g * np.sign(x))


def reduce_sum(t: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    return _reduce(t, axis, keepdims, "sum")


def reduce_mean(t: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    return _reduce(t, axis, keepdims, "mean")


def reduce_var(t: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Population variance (divisor n) along the axis."""
    return _reduce(t, axis, keepdims, "var")


def _reduce(t: Tensor, axis, keepdims: bool, kind: str) -> Tensor:
    t = as_tensor(t)
    if axis is not None:
        if not -t.data.ndim <= axis < t.data.ndim:
            raise ShapeError(f"axis {axis} out of range for shape {t.shape}")
        if t.shape[axis] == 0:
            raise ShapeError("cannot reduce over an empty axis")
    elif t.size == 0:
        raise ShapeError("cannot reduce an empty tensor")
    n = t.size if axis is None else t.shape[axis]

    if kind == "sum":
        data = t.data.sum(axis=axis, keepdims=keepdims)
    elif kind == "mean":
        data = t.data.mean(axis=axis, keepdims=keepdims)
    else:
        data = t.data.var(axis=axis, keepdims=keepdims)  # ddof=0: population
    out = Tensor(data, dtype=t.data.dtype)

    def expand(g):
        if axis is None:
            return np.broadcast_to(g.reshape(()), t.shape) if g.ndim == 0 or g.size == 1 else g
        if not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, t.shape)

    if kind == "sum":
        def bwd(g):
            _accumulate(t, np.ascontiguousarray(expand(g)))
    elif kind == "mean":
        def bwd(g):
            _accumulate(t, expand(g) / n)
    else:
        mu = t.data.mean(axis=axis, keepdims=True)

        def bwd(g):
            _accumulate(t, expand(g) * 2.0 * (t.data - mu) / n)

    return _record(out, (t,), bwd)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat needs at least one operand")
    nd = tensors[0].data.ndim
    for t in tensors[1:]:
        if t.data.ndim != nd:
            raise ShapeError("concat operands must share rank")
        for ax in range(nd):
            if ax != axis % nd and t.shape[ax] != tensors[0].shape[ax]:
                raise ShapeError(
                    f"concat shapes {t.shape} vs {tensors[0].shape} differ off axis {axis}"
                )
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis),
                 dtype=tensors[0].data.dtype)
    sizes = [t.shape[axis % nd] for t in tensors]

    def bwd(g):
        offset = 0
        for t, size in zip(tensors, sizes):
            idx = [slice(None)] * nd
            idx[axis % nd] = slice(offset, offset + size)
            _accumulate(t, g[tuple(idx)])
            offset += size

    return _record(out, tensors, bwd)


def slice_axis(t: Tensor, axis: int, start: int, stop: int) -> Tensor:
    t = as_tensor(t)
    nd = t.data.ndim
    axis = axis % nd
    if not (0 <= start <= stop <= t.shape[axis]):
        raise ShapeError(f"slice [{start}:{stop}] out of bounds for axis {axis} of {t.shape}")
    idx = [slice(None)] * nd
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    out = Tensor(t.data[idx].copy(), dtype=t.data.dtype)

    def bwd(g):
        full = np.zeros_like(t.data)
        full[idx] = g
        _accumulate(t, full)

    return _record(out, (t,), bwd)


def reverse(t: Tensor, axis: int) -> Tensor:
    """Flip along one axis; involutive and elementwise-exact."""
    t = as_tensor(t)
    out = Tensor(np.flip(t.data, axis=axis).copy(), dtype=t.data.dtype)

    def bwd(g):
        _accumulate(t, np.flip(g, axis=axis))

    return _record(out, (t,), bwd)


def transpose(t: Tensor) -> Tensor:
    t = as_tensor(t)
    if t.data.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got shape {t.shape}")
    out = Tensor(t.data.T.copy(), dtype=t.data.dtype)

    def bwd(g):
        _accumulate(t, g.T)

    return _record(out, (t,), bwd)


def take_rows(t: Tensor, indices) -> Tensor:
    """Gather rows by index; backward scatter-adds into the source rows."""
    t = as_tensor(t)
    if t.data.ndim != 2:
        raise ShapeError(f"take_rows expects a matrix, got shape {t.shape}")
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1 or (idx.size and (idx.min() < 0 or idx.max() >= t.shape[0])):
        raise ShapeError(f"row indices out of bounds for {t.shape}")
    out = Tensor(t.data[idx], dtype=t.data.dtype)

    def bwd(g):
        full = np.zeros_like(t.data)
        np.add.at(full, idx, g)
        _accumulate(t, full)

    return _record(out, (t,), bwd)


def reshape(t: Tensor, shape) -> Tensor:
    """Same entries in a new shape; a contiguous input is viewed, not copied
    (tensors are immutable once they participate in a tape)."""
    t = as_tensor(t)
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape)) != t.size:
        raise ShapeError(f"cannot reshape {t.shape} to {shape}")
    out = Tensor(t.data.reshape(shape), dtype=t.data.dtype)

    def bwd(g):
        _accumulate(t, g.reshape(t.shape))

    return _record(out, (t,), bwd)


def will_record(inputs: Sequence[Tensor]) -> bool:
    """Whether an op on these inputs would be recorded on the active tape;
    fused ops keep their backward state only then."""
    return _active_tape() is not None and any(t.requires_grad for t in inputs)


def custom_op(data: np.ndarray, inputs: Sequence[Tensor], backward_fn: Callable) -> Tensor:
    """Record a forward computed directly on numpy arrays as one tape node.

    ``backward_fn(g)`` receives the output gradient and returns one gradient
    array (or None) per input, in input order."""
    out = Tensor(data, dtype=data.dtype.type)
    _debug_finite(out, *inputs)

    def bwd(g):
        for t, grad in zip(inputs, backward_fn(g)):
            if grad is not None:
                _accumulate(t, grad)

    return _record(out, inputs, bwd)


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
    with Tape() as tape:
        loss = f()
        tape.backward(loss)
    analytic = [
        np.zeros_like(leaf.data) if leaf.grad is None else np.asarray(leaf.grad)
        for leaf in leaves
    ]

    def probe() -> float:
        value = float(f().data.reshape(-1)[0])
        return value

    errors = []
    for k, leaf in enumerate(leaves):
        flat = leaf.data.reshape(-1)
        err = np.zeros(flat.size, dtype=np.float64)
        a_flat = analytic[k].reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + step
            up = probe()
            flat[i] = saved - step
            down = probe()
            flat[i] = saved
            if not (np.isfinite(up) and np.isfinite(down)):
                raise GradcheckError(f"non-finite loss while probing leaf {k} entry {i}")
            numeric = (up - down) / (2.0 * step)
            a = float(a_flat[i])
            denom = max(abs(a), abs(numeric))
            err[i] = abs(a - numeric) if denom < 1e-8 else abs(a - numeric) / denom
        errors.append(err.reshape(leaf.shape))
    return errors


def finite_difference_check(
    f: Callable[[], Tensor],
    leaves: Iterable[Tensor],
    step: float = 1e-5,
) -> float:
    """Worst gradient error over all leaf entries (see finite_difference_errors)."""
    errors = finite_difference_errors(f, leaves, step)
    return max(float(e.max()) for e in errors) if errors else 0.0
