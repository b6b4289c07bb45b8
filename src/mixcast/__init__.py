"""mixcast: a recurrent multivariate time-series forecaster.

The pipeline normalizes each window per variate, computes a shared linear
forecast across time, refines up-projected variate tokens with a stack of
stabilized exponential-gated recurrent blocks in two feature orderings, and
reconciles both views into the final forecast.  Everything runs on the small
reverse-mode autodiff engine in :mod:`mixcast.tensor`.
"""

from . import data, gradcheck, metrics, mixer, slstm, tensor, training
from .mixer import (
    MixerConfig,
    MixerParams,
    build_ablation_config,
    forward_batch,
    init_mixer_params,
    load_checkpoint,
    save_checkpoint,
)
from .slstm import BlockConfig
from .tensor import Tape, Tensor
from .training import TrainConfig, fit

__version__ = "0.1.0"

__all__ = [
    "data",
    "gradcheck",
    "metrics",
    "mixer",
    "slstm",
    "tensor",
    "training",
    "MixerConfig",
    "MixerParams",
    "BlockConfig",
    "TrainConfig",
    "Tape",
    "Tensor",
    "build_ablation_config",
    "forward_batch",
    "init_mixer_params",
    "save_checkpoint",
    "load_checkpoint",
    "fit",
    "__version__",
]
