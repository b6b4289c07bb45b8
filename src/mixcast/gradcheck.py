"""End-to-end gradient verification on a tiny full model.

Runs in 64-bit precision and compares every parameter's analytic gradient of
the L1 forecast loss against central finite differences.  Seeds are screened
so the loss sits away from the |.| and max(.) kinks, where finite differences
are meaningless.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import mixer
from . import tensor as T
from .slstm import BlockConfig, StabilizerStats
from .training import mae_loss


@dataclass
class GradcheckResult:
    max_error: float
    frac_below_1e6: float
    num_params: int
    runtime_s: float
    per_group: dict

    @property
    def passed(self) -> bool:
        return self.max_error < 1e-4 and self.frac_below_1e6 >= 0.99


def tiny_config(num_variates=3, lookback=8, horizon=4, embed_dim=8, heads=2,
                num_blocks=1, conv_width=0) -> mixer.MixerConfig:
    block = BlockConfig(d_hidden=embed_dim, num_heads=heads,
                        conv_width=conv_width, dropout_rate=0.0)
    return mixer.MixerConfig(lookback=lookback, horizon=horizon,
                             num_variates=num_variates, embed_dim=embed_dim,
                             num_blocks=num_blocks, block=block)


def build_tiny_problem(seed: int = 0, cfg: mixer.MixerConfig | None = None):
    """Deterministically pick a (params, x, target) triple whose base loss is
    bounded away from every non-smooth point."""
    cfg = cfg or tiny_config()
    for trial in range(seed, seed + 64):
        rng = np.random.default_rng(trial)
        params = mixer.init_mixer_params(cfg, rng, dtype=np.float64)
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
    flat = np.concatenate([e.reshape(-1) for e in errors])
    per_group = {name: float(e.max()) for (name, _, _), e in zip(triples, errors)}
    return GradcheckResult(
        max_error=float(flat.max()),
        frac_below_1e6=float(np.mean(flat < 1e-6)),
        num_params=flat.size,
        runtime_s=time.perf_counter() - started,
        per_group=per_group,
    )
