"""float32 training gradients at the benchmark widths, held to float64.

The other gradient tests run at most 1,408 stack rows.  Here one taped
training step (D=64, 4 heads, L=H=96, B=32, dropout 0.1) runs at V=321 with
one block, 20,608 stack rows, and at V=80 with two blocks and conv 4, in
float32 and in float64 from the same weights, windows and dropout draws.
Every parameter's float32 gradient must lie within 1e-4 of the float64 one,
relative to the float64 gradient's largest entry.

``b_i`` is left out: its gradient is zero up to rounding (``slstm``'s module
docstring), so its float32 and float64 values are both rounding noise and
agree on nothing.
"""

import numpy as np
import pytest

from mixcast import mixer, tensor as T, training
from mixcast.slstm import BlockConfig
from mixcast.tensor import Tape

RTOL = 1e-4
BATCH, LENGTH, WIDTH = 32, 96, 64


def step_gradients(variates, blocks, conv, dtype):
    """Every parameter gradient of one taped training step, by name.  The
    weights are drawn in float64 and rounded to float32, and the windows are
    float32 values, so both precisions start from the same numbers."""
    cfg = mixer.MixerConfig(lookback=LENGTH, horizon=LENGTH, num_variates=variates,
                            embed_dim=WIDTH, num_blocks=blocks,
                            block=BlockConfig(d_hidden=WIDTH, num_heads=4, conv_width=conv,
                                              dropout_rate=0.1))
    with T.precision(np.float64):
        params = mixer.init_mixer_params(cfg, np.random.default_rng(3))
    for _, t, _ in params.named_parameters():
        t.data = t.data.astype(np.float32).astype(dtype)
    rng = np.random.default_rng(4)
    xs, ys = (rng.normal(size=(BATCH, variates, LENGTH)).astype(np.float32).astype(dtype)
              for _ in range(2))
    with Tape() as tape:
        pred = mixer.forward_batch(params, cfg, xs, training=True, rng=np.random.default_rng(5))
        tape.backward(training.mae_loss(pred, ys))
    return {name: t.grad for name, t, _ in params.named_parameters()}


@pytest.mark.parametrize("variates, blocks, conv", [(321, 1, 0), (80, 2, 4)],
                         ids=["V321-blocks1", "V80-blocks2-conv4"])
def test_float32_step_gradients_match_float64_at_wide_shapes(variates, blocks, conv):
    got = step_gradients(variates, blocks, conv, np.float32)
    want = step_gradients(variates, blocks, conv, np.float64)
    assert sorted(got) == sorted(want)
    for name in want:
        if name.endswith(".b_i"):
            continue
        assert got[name].dtype == np.float32, name
        deviation = np.abs(got[name] - want[name]).max() / np.abs(want[name]).max()
        assert deviation <= RTOL, f"{name}: {deviation:.3e} of its largest float64 entry"
