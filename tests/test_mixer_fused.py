"""The fused pipeline stages against the composed-op reference, in float64.

The forecast and every parameter gradient must agree for all ten ablation
configurations, batch sizes 1 and 3, conv widths 0 and 4, and a training step
with dropout.  The stages are also checked for the module attributes the
benchmark's traced run wraps, for the memory they hold without a tape, for
the size of a training step's tape, and for writing no array they are given.
"""

import contextlib
import tracemalloc

import numpy as np
import pytest

from mixcast import mixer, slstm, tensor as T
from mixcast.mixer import build_ablation_config, init_mixer_params
from mixcast.slstm import BlockConfig
from mixcast.tensor import Tape, Tensor

import engine_reference as R
import mixer_reference as ref
from test_slstm_fused import assert_close, forward_and_grads, training_step_nodes


def make_cfg(cid, conv_width=0, dropout=0.0, num_blocks=1):
    block = BlockConfig(d_hidden=8, num_heads=2, conv_width=conv_width,
                        dropout_rate=dropout)
    base = mixer.MixerConfig(lookback=8, horizon=4, num_variates=3, embed_dim=8,
                             num_blocks=num_blocks, block=block)
    return build_ablation_config(cid, base)


def compare_with_reference(cfg, batch, seed, training=False):
    rng = np.random.default_rng(seed)
    with T.precision(np.float64):
        params = init_mixer_params(cfg, rng)
    x = rng.normal(0.0, 2.0, size=(cfg.num_variates * batch, cfg.lookback))
    weights = rng.normal(size=(cfg.num_variates * batch, cfg.horizon))
    names = [name for name, _, _ in params.named_parameters()]
    leaves = [t for _, t, _ in params.named_parameters()]

    def dropout_rng():
        return np.random.default_rng(seed + 1) if training else None

    got, got_grads = forward_and_grads(
        lambda: mixer.forward_batch(params, cfg, ref.windows_of(x, batch), training=training,
                                    rng=dropout_rng()),
        leaves, ref.windows_of(weights, batch))
    want, want_grads = forward_and_grads(
        lambda: ref.forward_flat(params, cfg, x, batch, training, dropout_rng()),
        leaves, weights)
    assert got.shape == (batch, cfg.num_variates, cfg.horizon)
    assert_close(got, ref.windows_of(want, batch), "forecast")
    for name, g, w in zip(names, got_grads, want_grads):
        assert_close(g, w, name)
    return params, ref.windows_of(x, batch)


@pytest.mark.parametrize("conv_width", [0, 4])
@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("cid", list(range(1, 11)))
def test_fused_stages_match_reference(cid, batch, conv_width):
    compare_with_reference(make_cfg(cid, conv_width), batch, 10 * cid + batch + conv_width)


@pytest.mark.parametrize("cid", [1, 2])
def test_fused_stages_match_reference_training_with_dropout(cid):
    cfg = make_cfg(cid, conv_width=4, dropout=0.3, num_blocks=2)
    params, xs = compare_with_reference(cfg, 3, 50 + cid, training=True)
    eval_out = mixer.forward_batch(params, cfg, xs)
    train_out = mixer.forward_batch(params, cfg, xs, training=True, rng=np.random.default_rng(0))
    assert not np.array_equal(train_out.data, eval_out.data)  # dropout was active


@pytest.mark.parametrize("num_variates,num_blocks,conv_width,want",
                         [(7, 1, 0, 8), (21, 2, 4, 9)], ids=["etth1", "weather-conv"])
def test_training_step_records_exact_tape_nodes(num_variates, num_blocks, conv_width,
                                                want):
    # The etth1-train and weather-conv-train shapes: one node per pipeline
    # stage (six), one per block and the loss.
    assert training_step_nodes(num_variates, num_blocks, conv_width) == want


def test_training_step_tape_has_at_most_12_nodes():
    # The etth1-train shape: 7 variates, one block, no conv.
    nodes = training_step_nodes(7, 1, 0)
    assert nodes <= 12, f"{nodes} tape nodes"


# -- the stage attributes a traced run wraps ---------------------------------------

STAGES = [(mixer, "revin_normalize"), (mixer, "nlinear_forecast"), (mixer, "up_project"),
          (mixer, "reconcile_views"), (mixer, "revin_denormalize"),
          (slstm, "_stack_tokens")]


@pytest.mark.parametrize("training", [False, True])
@pytest.mark.parametrize("cid", [1, 2, 7])
def test_forward_calls_each_stage_attribute_once(cid, training, monkeypatch):
    # Variates axis (1), time axis (2), and no time mixing (7).
    cfg = make_cfg(cid, dropout=0.1)
    rng = np.random.default_rng(cid)
    params = init_mixer_params(cfg, rng)
    calls = {}
    for owner, name in STAGES:
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    xs = rng.normal(size=(2, cfg.num_variates, cfg.lookback)).astype(np.float32)
    with Tape():
        mixer.forward_batch(params, cfg, xs, training=training, rng=rng)
    expected = {name: 1 for _, name in STAGES}
    if not cfg.mix_time:
        del expected["nlinear_forecast"]
    assert calls == expected


# -- no backward state without a tape ----------------------------------------------

def held_bytes(run, record):
    """Bytes still allocated once run() has returned, with its outputs alive."""
    tracemalloc.start()
    try:
        with Tape() if record else contextlib.nullcontext():
            outputs = run()  # noqa: F841 - alive while measuring
            return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_eval_stages_keep_no_history():
    rng = np.random.default_rng(9)
    cfg = make_cfg(1)
    params = init_mixer_params(cfg, rng)
    batch = 2000
    rows = cfg.num_variates * batch
    x = Tensor(rng.normal(size=(rows, cfg.lookback)))
    y_norm = R.parameter(rng.normal(size=(rows, cfg.horizon)))
    _, stats = mixer.revin_normalize(params.revin, x.data, batch)

    # With a tape the centered rows (RevIN, NLinear) and (y - beta) / gamma
    # (the inverse) are kept for the backward; without one only the output.
    for run in (lambda: mixer.revin_normalize(params.revin, x.data, batch),
                lambda: mixer.nlinear_forecast(params.nlinear_w, params.nlinear_b, x),
                lambda: mixer.revin_denormalize(params.revin, stats, y_norm, batch)):
        assert held_bytes(run, False) < 0.6 * held_bytes(run, True)


@pytest.mark.parametrize("chunk_rows, bound", [(None, 4.5), (256, 2.5)])
def test_eval_forward_peak_is_a_few_outputs(monkeypatch, chunk_rows, bound):
    # Without a tape each stage output is freed once the next stage has read
    # it.  At the default budget the batch is one chunk: about 3.1x the
    # output, against 6.2x when every stage output lived until the forward
    # returned (at V=321, B=128, D=64: 60 MB against 111 MB, for a 15.8 MB
    # output).  Streamed in 8 chunks of 4 variates, the stages hold chunk
    # arrays only beside the output: about 2.0x.
    if chunk_rows is not None:
        monkeypatch.setattr(slstm, "CHUNK_ROWS", chunk_rows)
    block = BlockConfig(d_hidden=16, num_heads=2, conv_width=0, dropout_rate=0.1)
    cfg = mixer.MixerConfig(lookback=96, horizon=96, num_variates=32, embed_dim=16,
                            num_blocks=1, block=block)
    rng = np.random.default_rng(6)
    params = init_mixer_params(cfg, rng)
    xs = rng.normal(size=(32, cfg.num_variates, cfg.lookback)).astype(np.float32)
    tracemalloc.start()
    try:
        out = mixer.forward_batch(params, cfg, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * out.data.nbytes, peak / out.data.nbytes


# -- each stage writes only the arrays it allocates ---------------------------------

LOCKED_STAGES = STAGES + [(mixer, "pack_views"), (mixer, "_swap_token_axes"),
                          (slstm, "_block")]


def arrays_in(value):
    if isinstance(value, Tensor):
        return [value.data]
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, mixer.RevInParams):
        return [value.gamma.data, value.beta.data]
    if isinstance(value, tuple):
        return [a for item in value for a in arrays_in(item)]
    return []


@pytest.mark.parametrize("record", [False, True], ids=["eval", "taped"])
@pytest.mark.parametrize("axis", [mixer.AXIS_VARIATES, mixer.AXIS_TIME])
@pytest.mark.parametrize("owner, name", LOCKED_STAGES, ids=[n for _, n in LOCKED_STAGES])
def test_stages_leave_read_only_inputs_untouched(owner, name, axis, record, monkeypatch):
    """Every array one stage op, the stack or a block is handed is made
    read-only before each call, and the parameters and windows are too, so
    any write into them, then or later in the forward or backward, raises.
    The forecast and gradients must equal those of a run without locks.
    With 40 windows in two views a variate token is 80 stack rows, so a
    256-row budget streams the six variates in chunks of three."""
    monkeypatch.setattr(slstm, "CHUNK_ROWS", 256)
    block = BlockConfig(d_hidden=8, num_heads=2, conv_width=4, dropout_rate=0.1)
    cfg = mixer.MixerConfig(lookback=8, horizon=4, num_variates=6, embed_dim=8,
                            num_blocks=2, block=block, slstm_axis=axis)
    rng = np.random.default_rng(12)
    with T.precision(np.float64):
        params = init_mixer_params(cfg, rng)
    xs = rng.normal(size=(40, cfg.num_variates, cfg.lookback))
    weights = rng.normal(size=(40, cfg.num_variates, cfg.horizon))
    leaves = [t for _, t, _ in params.named_parameters()]

    def run():
        if not record:
            out = np.empty((40, cfg.num_variates, cfg.horizon))
            mixer.forward_batch(params, cfg, xs, scratch=slstm.Scratch(), out=out)
            return out, []
        return forward_and_grads(
            lambda: mixer.forward_batch(params, cfg, xs, training=True,
                                        rng=np.random.default_rng(1)), leaves, weights)

    want = run()
    original = getattr(owner, name)

    def locked(*args, **kwargs):
        for value in (*args, *kwargs.values()):
            for a in arrays_in(value):
                a.flags.writeable = False
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, locked)
    for a in [xs] + [t.data for t in leaves]:
        a.flags.writeable = False
    got = run()
    np.testing.assert_array_equal(got[0], want[0])
    for g, w in zip(got[1], want[1]):
        np.testing.assert_array_equal(g, w)
