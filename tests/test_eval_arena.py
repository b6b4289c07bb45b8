"""The scratch arena of an evaluation pass.

``predict_dataset`` makes one arena for the pass, and the recurrent blocks
carve their no-tape chunk buffers from it; its first carve allocates the
buffer, and only a larger carve replaces it.  The oracle is the forward
without an arena: per-batch ``forward_batch`` calls over the same batches
must give the same forecasts bit for bit, with every byte of each new buffer,
and of the arena before each batch, set to NaN, so a stage that reads a
buffer it did not write in the same batch shows.
"""

import itertools
import threading

import numpy as np
import pytest

from mixcast import data, mixer, slstm, tensor as T, training
from mixcast.slstm import BlockConfig
from mixcast.tensor import Tape
from mixcast.training import mae_loss

from conftest import synthetic_series

VARIATES, LOOKBACK, HORIZON, WIDTH = 5, 12, 6, 8
# A batch of 128 windows in two views is 256 rows per token: two tokens per
# chunk, so every batch spans several chunks and the conv tail crosses seams.
CHUNK_ROWS = 600
WINDOWS = (1, 127, 128, 191, 385)
NAN = 0xFF  # every byte 0xFF is a NaN in float32 and in float64


def model(conv, blocks, mix_view, init_token, axis, dtype, variates=VARIATES,
          dropout=0.0, seed=3):
    cfg = mixer.MixerConfig(
        lookback=LOOKBACK, horizon=HORIZON, num_variates=variates, embed_dim=WIDTH,
        num_blocks=blocks, block=BlockConfig(d_hidden=WIDTH, num_heads=2, conv_width=conv,
                                             dropout_rate=dropout),
        slstm_axis=axis, init_token=init_token, mix_view=mix_view)
    with T.precision(dtype):
        params = mixer.init_mixer_params(cfg, np.random.default_rng(seed))
    return params, cfg


def dataset(windows, variates=VARIATES, seed=4):
    values = synthetic_series(windows + LOOKBACK + HORIZON - 1, variates, seed=seed)
    return data.window_iter(values, (0, values.shape[0]), LOOKBACK, HORIZON)


def per_batch_oracle(params, cfg, ds, batch_size=128):
    """The same batches as predict_dataset, each a forward without an arena."""
    xs, _ = ds.windows()
    return np.concatenate([
        mixer.forward_batch(params, cfg, xs[lo:hi]).data
        .reshape(cfg.num_variates, hi - lo, cfg.horizon).transpose(1, 0, 2)
        for lo, hi in training._eval_batches(len(ds), batch_size)])


class Poisoned(slstm.Scratch):
    """An arena whose every new buffer starts with all bytes NaN."""

    def carve(self, dtype, shapes):
        before = self.buffer
        arrays = super().carve(dtype, shapes)
        if self.buffer is not before:
            self.buffer.fill(NAN)
            self.allocated(self.buffer)
        return arrays

    def allocated(self, buffer):
        pass


class Spy:
    """Records the buffers the arenas allocate, NaN-fills the arena handed to
    every forward_batch call and records it, and records every block output."""

    def __init__(self, monkeypatch):
        self.made, self.calls, self.blocks = [], [], []
        spy = self
        forward, block = mixer.forward_batch, slstm._block

        def recorded_block(*args):
            out = block(*args)
            spy.blocks.append(out.data)
            return out

        class Counted(Poisoned):
            def allocated(self, buffer):
                spy.made.append(buffer)

        def forward_batch(params, cfg, xs, *args, scratch=None, **kwargs):
            if scratch is not None and scratch.buffer is not None:
                scratch.buffer.fill(NAN)
            out = forward(params, cfg, xs, *args, scratch=scratch, **kwargs)
            spy.calls.append((scratch, out.data))
            return out

        monkeypatch.setattr(slstm, "Scratch", Counted)
        monkeypatch.setattr(slstm, "_block", recorded_block)
        monkeypatch.setattr(mixer, "forward_batch", forward_batch)


MATRIX = list(itertools.product((0, 2, 4), (1, 2), (True, False), (True, False),
                                (mixer.AXIS_VARIATES, mixer.AXIS_TIME)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("conv, blocks, mix_view, init_token, axis", MATRIX,
                         ids=["-".join(map(str, case)) for case in MATRIX])
def test_pass_equals_per_batch_forwards_without_an_arena(
        conv, blocks, mix_view, init_token, axis, dtype, monkeypatch):
    params, cfg = model(conv, blocks, mix_view, init_token, axis, dtype)
    monkeypatch.setattr(slstm, "CHUNK_ROWS", CHUNK_ROWS)
    for n in WINDOWS:
        ds = dataset(n)
        with T.precision(dtype):  # the windows in the model's dtype
            want = per_batch_oracle(params, cfg, ds)
            with monkeypatch.context() as patch:
                spy = Spy(patch)
                pred, _ = training.predict_dataset(params, cfg, ds, batch_size=128)
        assert pred.dtype == dtype and pred.tobytes() == want.tobytes(), n
        # One arena serves every batch of the pass.  385 windows run as 128,
        # 128 and 129, and only the last batch needs a larger buffer.
        arena = spy.calls[0][0]
        assert all(scratch is arena for scratch, _ in spy.calls)
        assert len(spy.calls) == len(list(training._eval_batches(n, 128)))
        assert len(spy.made) == (2 if n == 385 else 1), n
        assert arena.buffer is spy.made[-1]
        # Nothing the pass returns lives in a buffer of the arena, and no
        # block output does either: each feeds the next block and
        # reconciliation.
        assert len(spy.blocks) == blocks * len(spy.calls)
        for out in spy.blocks + [out for _, out in spy.calls] + [pred]:
            assert not any(np.shares_memory(out, buffer) for buffer in spy.made)


def test_a_pass_without_a_stack_allocates_no_buffer(monkeypatch):
    params, cfg = model(0, 1, False, False, mixer.AXIS_NONE, np.float32)
    ds = dataset(191)
    want = per_batch_oracle(params, cfg, ds)
    spy = Spy(monkeypatch)
    pred, _ = training.predict_dataset(params, cfg, ds, batch_size=128)
    assert pred.tobytes() == want.tobytes()
    assert spy.made == [] and all(scratch.buffer is None for scratch, _ in spy.calls)


@pytest.mark.parametrize("windows, buffers", [(448, 1), (385, 2)])
def test_a_pass_allocates_a_second_buffer_only_for_a_larger_batch(windows, buffers,
                                                                   monkeypatch):
    # 448 windows run as 128, 128, 128 and 64, so the first carve is the
    # largest; 385 run as 128, 128 and 129, and the last batch carves more.
    params, cfg = model(4, 2, True, True, mixer.AXIS_VARIATES, np.float32)
    ds = dataset(windows)
    want = per_batch_oracle(params, cfg, ds)
    spy = Spy(monkeypatch)
    pred, _ = training.predict_dataset(params, cfg, ds, batch_size=128)
    assert pred.tobytes() == want.tobytes()
    assert len(spy.made) == buffers
    assert spy.made[-1].size == max(buffer.size for buffer in spy.made)


def test_a_larger_carve_replaces_the_buffer_and_earlier_arrays_keep_their_values():
    arena = slstm.Scratch()
    assert arena.buffer is None
    small = arena.carve(np.float32, [(3, 5), (7,)])
    first = arena.buffer
    # 60 and 28 bytes, each starting at a cache line.
    assert first.size == 128
    for k, a in enumerate(small):
        a.fill(k + 1)
    again = arena.carve(np.float64, [(2, 2)])
    assert arena.buffer is first and np.shares_memory(again[0], small[0])
    small[0].fill(1)
    large = arena.carve(np.float64, [(4, 40), (1,)])
    assert arena.buffer is not first and arena.buffer.size == 1344
    for a in large:
        a.fill(-1)
    assert not any(np.shares_memory(a, b) for a in small for b in large)
    assert (small[0] == 1).all() and (small[1] == 2).all()
    assert [a.shape for a in large] == [(4, 40), (1,)]
    assert all(a.dtype == np.float64 and a.flags.c_contiguous for a in large)


@pytest.mark.parametrize("conv, blocks", [(0, 1), (4, 2)])
def test_a_recording_forward_never_touches_the_arena(conv, blocks, monkeypatch):
    monkeypatch.setattr(slstm, "CHUNK_ROWS", CHUNK_ROWS)
    params, cfg = model(conv, blocks, True, True, mixer.AXIS_VARIATES, np.float32,
                        dropout=0.1)
    xs, ys = dataset(40).windows()
    xs, target = xs[:32], mixer.flatten_targets(ys[:32])
    leaves = [t for _, t, _ in params.named_parameters()]

    def gradients(scratch):
        for t in leaves:
            t.zero_grad()
        with Tape() as tape:
            pred = mixer.forward_batch(params, cfg, xs, training=True,
                                       rng=np.random.default_rng(9), scratch=scratch)
            tape.backward(mae_loss(pred, target))
        return pred.data, [t.grad.copy() for t in leaves]

    want_pred, want = gradients(None)
    # A no-tape forward sizes the arena, which the recording forward must
    # neither read nor write nor replace.
    arena = slstm.Scratch()
    mixer.forward_batch(params, cfg, xs, scratch=arena)
    buffer = arena.buffer
    buffer.fill(NAN)
    pred, got = gradients(arena)
    assert arena.buffer is buffer and (buffer == NAN).all()
    assert pred.tobytes() == want_pred.tobytes()
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


POISON = list(itertools.product((0, 4), (1, 2), (0.0, 0.1)))


@pytest.mark.parametrize("conv, blocks, dropout", POISON,
                         ids=["-".join(map(str, case)) for case in POISON])
def test_a_recording_block_reads_no_buffer_before_writing_it(conv, blocks, dropout,
                                                              monkeypatch):
    # A recording block carves its whole-sequence history, mask and normed
    # rows from an arena of its own; with every new buffer NaN, a read of a
    # byte the block did not write shows in the forecast or a gradient.
    params, cfg = model(conv, blocks, True, True, mixer.AXIS_VARIATES, np.float32,
                        dropout=dropout)
    xs, ys = dataset(40).windows()
    xs, target = xs[:32], mixer.flatten_targets(ys[:32])
    leaves = [t for _, t, _ in params.named_parameters()]

    def gradients():
        for t in leaves:
            t.zero_grad()
        with Tape() as tape:
            pred = mixer.forward_batch(params, cfg, xs, training=True,
                                       rng=np.random.default_rng(9))
            tape.backward(mae_loss(pred, target))
        return [pred.data] + [t.grad.copy() for t in leaves]

    want = gradients()
    monkeypatch.setattr(slstm, "Scratch", Poisoned)
    got = gradients()
    assert all(np.isfinite(w).all() for w in want)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def test_concurrent_passes_and_a_tape_equal_the_serial_runs():
    # Two threads score the same shared params at once while a third records
    # tapes on them: each pass owns its arena, so nothing crosses threads.
    params, cfg = model(4, 2, True, True, mixer.AXIS_VARIATES, np.float32,
                        variates=21, dropout=0.1)
    sets = [dataset(385, variates=21, seed=s) for s in (1, 2)]
    xs, ys = sets[0].windows()
    xs, target = xs[:32], mixer.flatten_targets(ys[:32])
    leaves = [t for _, t, _ in params.named_parameters()]

    def predict(ds):
        return training.predict_dataset(params, cfg, ds, batch_size=128)[0]

    def record():
        for t in leaves:
            t.zero_grad()
        with Tape() as tape:
            pred = mixer.forward_batch(params, cfg, xs, training=True,
                                       rng=np.random.default_rng(9))
            tape.backward(mae_loss(pred, target))
        return [t.grad.copy() for t in leaves]

    rounds = 3
    serial = {"predict0": predict(sets[0]), "predict1": predict(sets[1]), "record": record()}
    results = {name: [] for name in serial}
    errors = []

    def run(name, fn):
        try:
            for _ in range(rounds):
                results[name].append(fn())
        except BaseException as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=("predict0", lambda: predict(sets[0]))),
               threading.Thread(target=run, args=("predict1", lambda: predict(sets[1]))),
               threading.Thread(target=run, args=("record", record))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors
    for name in ("predict0", "predict1"):
        assert len(results[name]) == rounds
        assert all(got.tobytes() == serial[name].tobytes() for got in results[name]), name
    assert len(results["record"]) == rounds
    for grads in results["record"]:
        assert all(g.tobytes() == w.tobytes() for g, w in zip(grads, serial["record"]))

