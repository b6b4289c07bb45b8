"""Dense-array engine with reverse-mode automatic differentiation.

Tensors wrap row-major numpy arrays of any rank (the sLSTM's per-head
recurrent weights are [heads, d_h, d_h]).  Every differentiable op is one
:func:`custom_op`: a forward computed on numpy arrays and a backward that
returns one gradient per input.  Every op run while a :class:`Tape` is active
on the thread records its backward there, and calling ``backward`` once per
tape accumulates a gradient into every leaf those ops read: a tensor no op on
that tape made, as every parameter is.  Data no gradient should reach is
passed as a plain array.  A leaf without a ``grad`` gets a copy of its first
gradient, so the engine owns every ``grad`` it creates; a ``grad`` already
set (a caller's buffer, say) is added to in place and keeps its identity.
Tensors are treated as immutable once they participate in a tape.  Ops take
Tensors: the engine neither lifts arrays or scalars nor reshapes, and an op
that wants another layout of its input reads the input's array in that
layout.

A tape node holds a small gradient cell, not its op's output: the cell
gathers the output's gradient during the backward and sees the output array
only through a weak reference.  The recorded backward holds its inputs'
cells (a leaf is its own cell) and whatever arrays the op's backward reads,
so an output that no backward reads dies as soon as its caller drops it,
while its tape still records.  The backward runs the nodes last to first and
lets each one go, with its output's gradient, once it has run.  So after
``backward`` an op output's ``grad`` is None, and a leaf's holds its
gradient.

Two precisions are supported: 32-bit scalars for ordinary runs and 64-bit for
gradient checks and other oracle-grade computations.  A tensor built without
a dtype, as every model parameter is, takes the one :func:`precision` sets;
an op's output keeps the dtype its forward computed.  A tape must stay on the
thread that created it.  Its backward writes the ``grad`` of every leaf its
ops read, so two tapes that run at once may not share a tensor; passes
without a tape only read, and may share tensors with anything.  The default
dtype is per thread, like the active tape: every thread starts at 32 bits.
"""

from __future__ import annotations

import contextlib
import threading
import weakref
from typing import Callable, Sequence

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

    __slots__ = ("data", "grad", "_cell")

    def __init__(self, data, *, dtype=None):
        self.data = np.asarray(data, dtype or default_dtype())
        self.grad: np.ndarray | None = None
        self._cell = None  # set when an op on a tape made this tensor

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
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype})"


_GONE = np.empty(0)
_GONE.flags.writeable = False


class _Cell:
    """A tape node's hold on its op's output: the output's gradient, which
    the backward gathers here, and the output array, read through a weak
    reference while something else holds it, and empty once it has died;
    ``tape`` is the tape that recorded the op."""

    __slots__ = ("grad", "_data", "tape")

    def __init__(self, data: np.ndarray, tape: Tape):
        self.grad, self._data, self.tape = None, weakref.ref(data), tape

    @property
    def data(self) -> np.ndarray:
        data = self._data()
        return _GONE if data is None else data


class Tape:
    """Ordered record of executed operations (define-by-run).

    Node order is a valid topological order of the computation.  Each node
    is a pair (gradient cell, recorded backward).  ``backward`` may be
    called exactly once, and empties the tape as it runs; the tape is
    rebuilt on every forward pass.  Entering a tape while another records on
    the same thread raises.
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
    """Accumulate d(loss)/d(t) into every leaf t an op on the tape read.

    Each node is let go, with its output's gradient, once its backward has
    run, so afterwards the tape is empty and no op output has a ``grad``."""
    if tape._used:
        raise RuntimeError("backward was already called on this tape")
    if loss.size != 1:
        raise ShapeError(f"loss must be a scalar, got shape {loss.shape}")
    if loss._cell is None or loss._cell.tape is not tape:
        raise RuntimeError("loss was not produced on this tape")
    tape._used = True
    loss._cell.grad = np.ones_like(loss.data)
    nodes = tape._nodes
    while nodes:
        cell, bwd = nodes.pop()
        g, cell.grad = cell.grad, None
        if g is not None:
            bwd(g)


def _accumulate(t, g: np.ndarray) -> None:
    """Add g into the ``grad`` of t, a leaf or a gradient cell."""
    if t.grad is None:
        t.grad = np.array(g)
        return
    g = np.asarray(g)
    if g.shape != t.grad.shape:
        raise ShapeError(f"gradient has shape {g.shape}, the tensor's gradient {t.grad.shape}")
    if g.dtype != t.grad.dtype:
        raise ValueError(f"gradient is {g.dtype}, the tensor's gradient {t.grad.dtype}")
    t.grad += g


def will_record() -> bool:
    """Whether an op run now would be recorded: a tape is active on this
    thread.  Fused ops keep their backward state only then."""
    return _active_tape() is not None


def custom_op(data: np.ndarray, inputs: Sequence[Tensor], backward_fn: Callable) -> Tensor:
    """The one way an op is recorded: a forward computed directly on numpy
    arrays becomes one tape node.

    ``backward_fn(g)`` receives the output gradient and returns one gradient
    array (or None, to skip that input) per input, in input order.  An
    input's first gradient is copied before it is kept, so a backward may
    return one array for several inputs or a view of its own buffers; every
    later one, from this op or another, is added in place into the input's
    ``grad``.  A gradient of another shape or dtype than that ``grad`` is
    rejected, naming both, rather than broadcast or cast.  The op is recorded
    when a tape is active, and without one nothing is.

    The recorded backward holds ``backward_fn`` and the inputs' gradient
    cells, not the input tensors, so ``backward_fn`` should capture only the
    arrays it reads: an output no backward holds then dies with its last
    reference.  An input made by an op keeps its gradient in its cell, which
    the backward drops once that op has run; only a leaf input (a tensor no
    op on the tape made) keeps its ``grad`` after ``backward``."""
    out = Tensor(data, dtype=data.dtype.type)
    tape = _active_tape()
    if tape is not None:
        cells = [t if t._cell is None or t._cell.tape is not tape else t._cell
                 for t in inputs]

        def bwd(g):
            for cell, grad in zip(cells, backward_fn(g)):
                if grad is not None:
                    _accumulate(cell, grad)

        out._cell = _Cell(out.data, tape)
        tape._nodes.append((out._cell, bwd))
    return out

