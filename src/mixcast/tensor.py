"""Dense-array engine with reverse-mode automatic differentiation.

Tensors wrap row-major numpy arrays of any rank (the sLSTM's per-head
recurrent weights are [heads, d_h, d_h]).  Every differentiable op is one
:func:`custom_op`: a forward computed on numpy arrays and a backward that
returns one gradient per input.  Ops executed while a :class:`Tape` is active
record that backward onto it; calling ``backward`` once per tape accumulates
gradients into every ``requires_grad`` leaf.  A tensor without a ``grad``
gets a copy of its first gradient, so the engine owns every ``grad`` it
creates; a ``grad`` already set (a caller's buffer, say) is added to in place
and keeps its identity.  Tensors are treated as immutable once they
participate in a tape.  Ops take Tensors: the engine neither lifts arrays or
scalars nor reshapes, and an op that wants another layout of its input reads
the input's array in that layout.

Two precisions are supported: 32-bit scalars for ordinary runs and 64-bit for
gradient checks and other oracle-grade computations.  A tensor built without
a dtype, as every model parameter is, takes the one :func:`precision` sets;
an op's output keeps the dtype its forward computed.  A tape must stay on the
thread that created it; independent tapes may run concurrently against shared
read-only tensors.  The default dtype is per thread, like the tape stack:
every thread starts at 32 bits.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "ShapeError",
    "precision",
    "default_dtype",
    "will_record",
    "custom_op",
    "backward",
]


class ShapeError(ValueError):
    """Raised when operand shapes violate an operation's contract."""


_state = threading.local()


def _active_tape():
    return getattr(_state, "tape", None)


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
        self.data = np.asarray(data, dtype or default_dtype())
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
    Entering a tape while another records on the same thread raises.
    """

    __slots__ = ("_nodes", "_used")

    def __init__(self):
        self._nodes: list = []
        self._used = False

    def __enter__(self):
        if _active_tape() is not None:
            raise RuntimeError("a tape is already recording on this thread")
        _state.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _state.tape = None
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


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g)
        return
    g = np.asarray(g)
    if g.shape != t.grad.shape:
        raise ShapeError(f"gradient has shape {g.shape}, the tensor's gradient {t.grad.shape}")
    if g.dtype != t.grad.dtype:
        raise ValueError(f"gradient is {g.dtype}, the tensor's gradient {t.grad.dtype}")
    t.grad += g


def will_record(inputs: Iterable[Tensor]) -> bool:
    """Whether an op on these inputs would be recorded on the active tape;
    fused ops keep their backward state only then."""
    return _active_tape() is not None and any(t.requires_grad for t in inputs)


def custom_op(data: np.ndarray, inputs: Sequence[Tensor], backward_fn: Callable) -> Tensor:
    """The one way an op is recorded: a forward computed directly on numpy
    arrays becomes one tape node.

    ``backward_fn(g)`` receives the output gradient and returns one gradient
    array (or None, to skip that input) per input, in input order.  An
    input's first gradient is copied before it is kept, so a backward may
    return one array for several inputs or a view of its own buffers; every
    later one, from this op or another, is added in place into the input's
    ``grad``.  A gradient of another shape or dtype than that ``grad`` is
    rejected, naming both, rather than broadcast or cast.  The output
    requires a gradient when any input does; without an active tape nothing
    is recorded."""
    out = Tensor(data, dtype=data.dtype.type)
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

