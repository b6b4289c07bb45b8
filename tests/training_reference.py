"""The per-tensor optimizer that the flat-buffer one in ``mixcast.training``
replaced: global-norm clipping and Adam over lists of arrays, one tensor at a
time.  It is the oracle for the flat path, which must match it bit for bit:
the same pre-clip norms, moments, step count and parameters."""

import math
from dataclasses import dataclass

import numpy as np

from mixcast.tensor import ShapeError, Tensor
from mixcast.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, CLIP_NORM


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params: list[Tensor]) -> "AdamState":
        return cls(m=[np.zeros_like(p.data) for p in params],
                   v=[np.zeros_like(p.data) for p in params])


def clip_global_norm(grads: list[np.ndarray]) -> float:
    """Scale all gradients jointly so their global L2 norm is <= CLIP_NORM;
    returns the pre-clip norm."""
    total = 0.0
    for g in grads:
        s = float(np.sum(g.astype(np.float64) ** 2))
        if not np.isfinite(s):
            raise FloatingPointError("non-finite gradient before clipping")
        total += s
    norm = math.sqrt(total)
    if norm > CLIP_NORM:
        factor = CLIP_NORM / norm
        for g in grads:
            g *= factor
    return norm


def adam_step(state: AdamState, params: list[Tensor], grads: list[np.ndarray],
              lr: float) -> None:
    """Bias-corrected Adam update (eps outside the square root, no weight
    decay), one tensor at a time."""
    if len(params) != len(grads):
        raise ShapeError("params and grads length mismatch")
    state.t += 1
    b1, b2, t = ADAM_BETA1, ADAM_BETA2, state.t
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for k, (p, g) in enumerate(zip(params, grads)):
        if p.data.shape != g.shape:
            raise ShapeError(f"grad shape {g.shape} != param shape {p.data.shape}")
        state.m[k] = b1 * state.m[k] + (1.0 - b1) * g
        state.v[k] = b2 * state.v[k] + (1.0 - b2) * (g * g)
        m_hat = state.m[k] / c1
        v_hat = state.v[k] / c2
        update = lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        p.data = (p.data - update.astype(p.data.dtype, copy=False))
