"""End-to-end gradient verification on a tiny full model.

Runs in 64-bit precision and compares the analytic gradient of the L1
forecast loss against central finite differences twice: entry by entry for
every parameter, and along random unit directions (one per parameter tensor,
plus a few over the whole model), where a tensor's whole gradient is the
signal rather than one tiny entry.  Seeds are screened so the loss sits away
from the |.| and max(.) kinks, where finite differences are meaningless.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import mixer
from . import tensor as T
from .slstm import BlockConfig, StabilizerStats
from .training import mae_loss


# The directional check's step, whole-model direction count and error bound.
# At a step of 1e-6 cancellation noise reaches ~3e-6; at 1e-5 the worst error
# over the ten ablations, with 1 or 2 blocks and conv 0 or 4, is about 1e-6.
DIRECTIONAL_STEP = 1e-5
WHOLE_MODEL_DIRECTIONS = 8
DIRECTIONAL_TOL = 1e-5


@dataclass
class GradcheckResult:
    max_error: float
    frac_below_1e6: float
    num_params: int
    runtime_s: float
    per_group: dict
    directional_max_error: float
    num_directions: int

    @property
    def passed(self) -> bool:
        return (self.max_error < 1e-4 and self.frac_below_1e6 >= 0.99
                and self.directional_max_error < DIRECTIONAL_TOL)


def tiny_config(num_variates=3, lookback=8, horizon=4, embed_dim=8, heads=2,
                num_blocks=1, conv_width=0) -> mixer.MixerConfig:
    block = BlockConfig(d_hidden=embed_dim, num_heads=heads,
                        conv_width=conv_width, dropout_rate=0.0)
    return mixer.MixerConfig(lookback=lookback, horizon=horizon,
                             num_variates=num_variates, embed_dim=embed_dim,
                             num_blocks=num_blocks, block=block)


def build_tiny_problem(seed: int = 0, cfg: mixer.MixerConfig | None = None):
    """Deterministically pick a (params, x, target) triple whose base loss is
    bounded away from every non-smooth point, in the dtype of the caller's
    precision."""
    cfg = cfg or tiny_config()
    for trial in range(seed, seed + 64):
        rng = np.random.default_rng(trial)
        params = mixer.init_mixer_params(cfg, rng)
        x = rng.normal(0.0, 1.0, size=(cfg.num_variates, cfg.lookback))
        y = mixer.forward_batch(params, cfg, x[None])
        # Keep the base loss small: central differences of a loss of
        # magnitude |f| carry ~eps|f|/2h of cancellation noise, which must
        # stay below the 1e-6 relative gate for ~1e-6-sized gradients.
        # Offsets of at least 0.05 still keep the |.| kink far out of reach
        # of the 1e-5 probes.
        offset = rng.uniform(0.05, 0.15, size=y.shape) * rng.choice(
            [-1.0, 1.0], size=y.shape)
        target = y.data + offset
        if _stabilizer_margin(params, cfg, x) > 1e-3:
            return params, x, target
    raise RuntimeError("no well-conditioned gradcheck instance found")


def _stabilizer_margin(params, cfg, x) -> float:
    """Min |(f_tilde + m_prev) - i_tilde| over both views and every block of
    one eval-mode forward pass."""
    stats = StabilizerStats()
    mixer.forward_batch(params, cfg, x[None], stabilizer=stats)
    return stats.min_gap


def full_model_gradcheck(step: float = 1e-5, seed: int = 0,
                         cfg: mixer.MixerConfig | None = None) -> GradcheckResult:
    started = time.perf_counter()
    with T.precision(np.float64):
        params, x, target = build_tiny_problem(seed, cfg)
        cfg = params.config
        triples = list(params.named_parameters())
        leaves = [t for _, t, _ in triples]

        def f():
            return mae_loss(mixer.forward_batch(params, cfg, x[None]), target)

        errors = T.finite_difference_errors(f, leaves, step)
        directional = finite_difference_directional(f, leaves, np.random.default_rng(seed))
    flat = np.concatenate([e.reshape(-1) for e in errors])
    per_group = {name: float(e.max()) for (name, _, _), e in zip(triples, errors)}
    return GradcheckResult(
        max_error=float(flat.max()),
        frac_below_1e6=float(np.mean(flat < 1e-6)),
        num_params=flat.size,
        runtime_s=time.perf_counter() - started,
        per_group=per_group,
        directional_max_error=float(directional.max()),
        num_directions=directional.size,
    )


def finite_difference_directional(f, leaves, rng) -> np.ndarray:
    """Errors of the analytic directional derivative <g, v> of f against
    (f(θ+hv) − f(θ−hv)) / 2h, h = DIRECTIONAL_STEP, one per direction v.

    The directions are one random unit direction per leaf, zero on every
    other leaf, then WHOLE_MODEL_DIRECTIONS random unit directions over all
    leaves together.  An error is relative, except when both derivatives fall
    below 1e-8, where it is absolute.  A non-finite probe loss names its
    direction."""
    leaves = list(leaves)
    for leaf in leaves:
        leaf.zero_grad()
    with T.Tape() as tape:
        loss = f()
        tape.backward(loss)
    grads = [np.zeros(leaf.shape) if leaf.grad is None else leaf.grad for leaf in leaves]
    bases = [leaf.data for leaf in leaves]

    def unit(shapes):
        v = [rng.normal(size=shape) for shape in shapes]
        norm = np.sqrt(sum(float(np.vdot(x, x)) for x in v))
        return [x / norm for x in v]

    directions = []
    for k, leaf in enumerate(leaves):
        v = [np.zeros(other.shape) for other in leaves]
        v[k] = unit([leaf.shape])[0]
        directions.append(v)
    directions += [unit([leaf.shape for leaf in leaves])
                   for _ in range(WHOLE_MODEL_DIRECTIONS)]

    def probe(i: int, v, h: float) -> float:
        for leaf, base, d in zip(leaves, bases, v):
            leaf.data = (base + h * d).astype(base.dtype, copy=False)
        try:
            loss = float(f().data.reshape(-1)[0])
        except FloatingPointError as exc:
            raise T.GradcheckError(f"non-finite loss along direction {i}") from exc
        finally:
            for leaf, base in zip(leaves, bases):
                leaf.data = base
        if not np.isfinite(loss):
            raise T.GradcheckError(f"non-finite loss along direction {i}")
        return loss

    h = DIRECTIONAL_STEP
    errors = np.empty(len(directions))
    for i, v in enumerate(directions):
        numeric = (probe(i, v, h) - probe(i, v, -h)) / (2.0 * h)
        analytic = sum(float(np.vdot(g, d)) for g, d in zip(grads, v))
        denom = max(abs(analytic), abs(numeric))
        diff = abs(analytic - numeric)
        errors[i] = diff if denom < 1e-8 else diff / denom
    return errors
