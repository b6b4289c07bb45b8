"""What a recorded training step keeps alive, and for how long.

A tape node holds its output only through a weak reference, and a recorded
backward holds only the arrays it reads, so an op output that no backward
reads dies as soon as the forward drops it; ``backward`` lets every node go
once it has run.  These tests read that off weak references to the stages'
outputs, and off tracemalloc over a warm training step.
"""

import tracemalloc
import weakref

import numpy as np

from mixcast import mixer, slstm, training
from mixcast.slstm import BlockConfig
from mixcast.tensor import Tape
from mixcast.training import FlatParams, TrainConfig

from test_training import make_affine_task, small_config

STAGES = ("revin_normalize", "nlinear_forecast", "up_project", "pack_views",
          "reconcile_views", "revin_denormalize")


def model(variates, lookback, horizon, width, heads, conv):
    """Two blocks with dropout 0.1."""
    cfg = mixer.MixerConfig(lookback=lookback, horizon=horizon, num_variates=variates,
                            embed_dim=width, num_blocks=2,
                            block=BlockConfig(d_hidden=width, num_heads=heads, conv_width=conv,
                                              dropout_rate=0.1))
    return mixer.init_mixer_params(cfg, np.random.default_rng(0))


def spy_on_outputs(monkeypatch):
    """Weak references to the output array of every stage call and block of
    a forward, per name, in call order."""
    outputs = {}

    def spy(owner, name):
        original = getattr(owner, name)

        def wrapped(*args, **kwargs):
            result = original(*args, **kwargs)
            out = result[0] if isinstance(result, tuple) else result
            outputs.setdefault(name, []).append(weakref.ref(out.data))
            return result

        monkeypatch.setattr(owner, name, wrapped)

    for name in STAGES:
        spy(mixer, name)
    spy(slstm, "_block")
    return outputs


def test_outputs_no_backward_reads_die_with_the_forward(monkeypatch):
    params = model(variates=5, lookback=8, horizon=4, width=8, heads=2, conv=2)
    rng = np.random.default_rng(1)
    xs = rng.normal(size=(4, 5, 8)).astype(np.float32)
    ys = rng.normal(size=(4, 5, 4)).astype(np.float32)
    outputs = spy_on_outputs(monkeypatch)
    with Tape() as tape:
        loss = training.mae_loss(
            mixer.forward_batch(params, xs, training=True, rng=rng), ys)
        alive = {name: [ref() is not None for ref in refs] for name, refs in outputs.items()}
        # Only NLinear's output (the up-projection's backward reads it) and
        # the last block's (reconciliation's backward reads it) outlive the
        # forward; the tape still records all nine ops.
        assert alive == {"revin_normalize": [False], "nlinear_forecast": [True],
                         "up_project": [False], "pack_views": [False],
                         "_block": [False, True], "reconcile_views": [False],
                         "revin_denormalize": [False]}
        assert len(tape) == 9
        tape.backward(loss)
    assert not any(ref() is not None for refs in outputs.values() for ref in refs)
    assert len(tape) == 0


def test_fit_lets_each_forecast_and_loss_go_before_the_next_forward(tmp_path, monkeypatch):
    ds = make_affine_task(48)
    cfg = small_config()
    params = mixer.init_mixer_params(cfg, np.random.default_rng(0))
    refs, seen = [], []
    forward, loss_of = mixer.forward_batch, training.mae_loss

    def spied_forward(*args, **kwargs):
        if kwargs.get("training"):
            seen.append([ref() is None for ref in refs])
        pred = forward(*args, **kwargs)
        if kwargs.get("training"):
            refs.append(weakref.ref(pred.data))
        return pred

    def spied_loss(pred, target):
        loss = loss_of(pred, target)
        refs.append(weakref.ref(loss.data))
        return loss

    monkeypatch.setattr(mixer, "forward_batch", spied_forward)
    monkeypatch.setattr(training, "mae_loss", spied_loss)
    training.fit(params, cfg, ds, ds, TrainConfig(batch_size=16, max_epochs=1, patience=0),
                 tmp_path)
    assert len(seen) == 3
    assert all(all(dead) for dead in seen), seen


def test_a_warm_step_peaks_at_the_forward_live_set_plus_one_stage():
    # The weather workload's shape: 21 variates of batch 32, two blocks with
    # conv 4, D=64, dropout; the arena is about 8 MB.
    params = model(variates=21, lookback=96, horizon=96, width=64, heads=4, conv=4)
    rng = np.random.default_rng(2)
    xs = rng.normal(size=(32, 21, 96)).astype(np.float32)
    targets = rng.normal(size=(32, 21, 96)).astype(np.float32)
    flat, scratch = FlatParams(params), slstm.Scratch()

    def step(measure):
        flat.grad.fill(0)
        with Tape() as tape:
            loss = training.mae_loss(
                mixer.forward_batch(params, xs, training=True, rng=rng, scratch=scratch),
                targets)
            live = tracemalloc.get_traced_memory()[0] if measure else 0
            tape.backward(loss)
        return live

    step(False)
    tracemalloc.start()
    try:
        step(False)  # warm: the arena is carved, and the allocator traced
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        live = step(True) - base
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # One stage's arrays: the widest op is a block, over (1 + V) * 2B rows
    # of D.  Its forward holds its output and a float64 dropout draw of its
    # rows (two arrays' worth); its backward, its output gradient, the input
    # gradient it returns and the engine's copy of that, and a temporary.
    stage = 4 * (1 + 21) * 64 * 64 * 4
    assert 0 < live and peak <= live + stage, (live, peak, stage)
