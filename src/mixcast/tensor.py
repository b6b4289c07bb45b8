"""Dense-array engine with reverse-mode automatic differentiation.

Tensors wrap row-major numpy arrays of any rank (the sLSTM's per-head
recurrent weights are [heads, d_h, d_h]).  Every differentiable op is one
:func:`custom_op`: a forward computed on numpy arrays and a backward that
returns one gradient per input.  Ops executed while a :class:`Tape` is active
record that backward onto it; calling ``backward`` once per tape accumulates
gradients into every ``requires_grad`` leaf.  Tensors are treated as
immutable once they participate in a tape.

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
    "reshape",
    "will_record",
    "custom_op",
    "backward",
    "finite_difference_errors",
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


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g.copy() if isinstance(g, np.ndarray) and g.base is not None else np.asarray(g)
    else:
        t.grad = t.grad + g


def _debug_finite(out: Tensor, *inputs: Tensor) -> None:
    if DEBUG_CHECKS and not np.isfinite(out.data).all():
        if all(np.isfinite(t.data).all() for t in inputs):
            raise FloatingPointError("non-finite output from finite inputs")


def will_record(inputs: Sequence[Tensor]) -> bool:
    """Whether an op on these inputs would be recorded on the active tape;
    fused ops keep their backward state only then."""
    return _active_tape() is not None and any(t.requires_grad for t in inputs)


def custom_op(data: np.ndarray, inputs: Sequence[Tensor], backward_fn: Callable) -> Tensor:
    """The one way an op is recorded: a forward computed directly on numpy
    arrays becomes one tape node.

    ``backward_fn(g)`` receives the output gradient and returns one gradient
    array (or None, to skip that input) per input, in input order.  A
    gradient that is a view is copied before it is kept; an input used more
    than once, in this op or in several, sums its gradients.  The output
    requires a gradient when any input does; without an active tape nothing
    is recorded."""
    out = Tensor(data, dtype=data.dtype.type)
    _debug_finite(out, *inputs)
    out.requires_grad = any(t.requires_grad for t in inputs)
    tape = _active_tape()
    if tape is not None and out.requires_grad:
        def bwd(g):
            for t, grad in zip(inputs, backward_fn(g)):
                if grad is not None:
                    _accumulate(t, grad)

        out._tape = tape
        tape._nodes.append((out, bwd))
    return out


def reshape(t: Tensor, shape) -> Tensor:
    """Same entries in a new shape; a contiguous input is viewed, not copied
    (tensors are immutable once they participate in a tape)."""
    t = as_tensor(t)
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape)) != t.size:
        raise ShapeError(f"cannot reshape {t.shape} to {shape}")
    return custom_op(t.data.reshape(shape), [t], lambda g: [g.reshape(t.shape)])


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
