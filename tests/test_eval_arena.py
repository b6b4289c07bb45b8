"""The streamed evaluation pass and its scratch arena.

Without a tape ``forward_batch`` runs the pipeline chunk by chunk, each
chunk a run of whole variate tokens under ``slstm.CHUNK_ROWS`` stack rows,
and carves the stack's chunk buffers in one call from the arena
``predict_dataset`` makes for the pass.  The oracle is the forward that
records a tape: the same loop run as one chunk of all the variates, whose
stack carves an arena of its own, each block its own share of it.  The pass
must equal it bit for bit, with every byte of each new buffer, and of the
arena before each batch, set to NaN, so a block that reads a buffer it did
not write in the same batch shows.  In float64 the composed-op pipeline of
``mixer_reference`` is a second oracle, up to rounding.
"""

import gc
import itertools
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from mixcast import data, mixer, slstm, tensor as T, training
from mixcast.slstm import BlockConfig
from mixcast.tensor import Tape
from mixcast.training import mae_loss

import mixer_reference as ref
from conftest import synthetic_series
from test_slstm_fused import assert_close

VARIATES, LOOKBACK, HORIZON, WIDTH = 5, 12, 6, 8
# A batch of 127 to 129 windows in two views is about 256 rows per token, so
# a chunk holds two variate tokens (four in one view), the first chunk the
# learned token too, and a 191-window batch runs one variate per chunk: the
# learned token, the recurrence state and the conv tail all cross seams.
CHUNK_ROWS = 600
WINDOWS = (1, 127, 128, 191, 385)
NAN = 0xFF  # every byte 0xFF is a NaN in float32 and in float64


def model(conv, blocks, mix_view, init_token, axis, dtype, variates=VARIATES,
          dropout=0.0, seed=3, width=WIDTH, horizon=HORIZON):
    cfg = mixer.MixerConfig(
        lookback=LOOKBACK, horizon=horizon, num_variates=variates, embed_dim=width,
        num_blocks=blocks, block=BlockConfig(d_hidden=width, num_heads=2,
                                             conv_width=conv, dropout_rate=dropout),
        slstm_axis=axis, init_token=init_token, mix_view=mix_view)
    with T.precision(dtype):
        params = mixer.init_mixer_params(cfg, np.random.default_rng(seed))
    return params, cfg


def dataset(windows, variates=VARIATES, seed=4, horizon=HORIZON):
    values = synthetic_series(windows + LOOKBACK + horizon - 1, variates, seed=seed)
    return data.window_iter(values, (0, values.shape[0]), LOOKBACK, horizon)


def per_batch(forward, ds, batch_size=128):
    """forward(xs), a [B, V, H] forecast array, over the batches of
    predict_dataset, as [N, V, H]."""
    xs, _ = ds.windows()
    return np.concatenate([forward(xs[lo:hi])
                           for lo, hi in training._eval_batches(len(ds), batch_size)])


def taped_oracle(params, cfg, ds):
    """The same batches as predict_dataset, each a forward that records a tape."""
    def forward(xs):
        with Tape():
            return mixer.forward_batch(params, cfg, xs).data
    return per_batch(forward, ds)


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
    every forward_batch call and records it, and counts the stack's chunks."""

    def __init__(self, monkeypatch):
        self.made, self.calls, self.chunks = [], [], []
        spy = self
        forward, stack = mixer.forward_batch, slstm._stack_tokens

        def counted_stack(*args):
            spy.chunks[-1] += 1
            return stack(*args)

        class Counted(Poisoned):
            def allocated(self, buffer):
                spy.made.append(buffer)

        def forward_batch(params, cfg, xs, *args, scratch=None, **kwargs):
            if scratch is not None and scratch.buffer is not None:
                scratch.buffer.fill(NAN)
            spy.chunks.append(0)
            out = forward(params, cfg, xs, *args, scratch=scratch, **kwargs)
            spy.calls.append((scratch, out.data))
            return out

        monkeypatch.setattr(slstm, "Scratch", Counted)
        monkeypatch.setattr(slstm, "_stack_tokens", counted_stack)
        monkeypatch.setattr(mixer, "forward_batch", forward_batch)


def chunks_per_forward(cfg, batch):
    if cfg.slstm_axis != mixer.AXIS_VARIATES:
        return 1
    views = 2 if cfg.mix_view else 1
    step = max(1, CHUNK_ROWS // (views * batch))
    return -(-cfg.num_variates // step)


MATRIX = (list(itertools.product((0, 2, 4), (1, 2), (True, False), (True, False),
                                 (mixer.AXIS_VARIATES, mixer.AXIS_TIME)))
          + list(itertools.product((0,), (1,), (True, False), (True, False),
                                   (mixer.AXIS_NONE,))))


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("conv, blocks, mix_view, init_token, axis", MATRIX,
                         ids=["-".join(map(str, case)) for case in MATRIX])
def test_streamed_pass_equals_the_taped_forward(conv, blocks, mix_view, init_token, axis,
                                                dtype, monkeypatch):
    params, cfg = model(conv, blocks, mix_view, init_token, axis, dtype)
    monkeypatch.setattr(slstm, "CHUNK_ROWS", CHUNK_ROWS)
    for n in WINDOWS:
        ds = dataset(n)
        with T.precision(dtype):  # the windows in the model's dtype
            want = taped_oracle(params, cfg, ds)
            with monkeypatch.context() as patch:
                spy = Spy(patch)
                pred, _ = training.predict_dataset(params, cfg, ds, batch_size=128)
        assert pred.dtype == dtype and pred.tobytes() == want.tobytes(), n
        if dtype == np.float64 and n in (1, 191):
            def reference(xs):
                rows = np.ascontiguousarray(xs.transpose(1, 0, 2)).reshape(-1, LOOKBACK)
                return ref.windows_of(ref.forward_flat(params, cfg, rows, len(xs)).data, len(xs))

            with T.precision(dtype):
                composed = per_batch(reference, ds)
            assert_close(pred, composed, "forecast")
        # One arena serves every batch of the pass.  385 windows run as 128,
        # 128 and 129, and only the last batch needs a larger buffer; with
        # no stack nothing is carved.
        batches = list(training._eval_batches(n, 128))
        arena = spy.calls[0][0]
        assert all(scratch is arena for scratch, _ in spy.calls)
        assert len(spy.calls) == len(batches)
        made = 0 if axis == mixer.AXIS_NONE else 2 if n == 385 else 1
        assert len(spy.made) == made, n
        assert arena.buffer is (spy.made[-1] if made else None)
        # The stack runs once per chunk, and nothing the pass returns lives
        # in a buffer of the arena.
        if axis != mixer.AXIS_NONE:
            assert spy.chunks == [chunks_per_forward(cfg, hi - lo) for lo, hi in batches]
        for out in [out for _, out in spy.calls] + [pred]:
            assert not any(np.shares_memory(out, buffer) for buffer in spy.made)


def test_a_forward_without_an_arena_equals_the_pass(monkeypatch):
    # forward_batch makes an arena of its own when none is given, and
    # without out returns a [B, V, H] forecast of its own.
    monkeypatch.setattr(slstm, "CHUNK_ROWS", CHUNK_ROWS)
    params, cfg = model(4, 2, True, True, mixer.AXIS_VARIATES, np.float32)
    ds = dataset(385)
    pred, _ = training.predict_dataset(params, cfg, ds, batch_size=128)
    alone = per_batch(lambda xs: mixer.forward_batch(params, cfg, xs).data, ds)
    assert alone.tobytes() == pred.tobytes()


@pytest.mark.parametrize("variates", [8, 32])
def test_pass_memory_beyond_the_forecast_does_not_grow_with_variates(variates,
                                                                     monkeypatch):
    # A chunk holds two variates, so from 8 to 32 variates only the forecast
    # grows: no [V*B, .] array is made on the way.
    monkeypatch.setattr(slstm, "CHUNK_ROWS", 2 * 2 * 128)

    def extra(v):
        params, cfg = model(4, 2, True, True, mixer.AXIS_VARIATES, np.float32,
                            variates=v, width=16, horizon=24)
        ds = dataset(256, variates=v, horizon=24)
        ds.windows()  # the cache is the dataset's, made once
        tracemalloc.start()
        try:
            pred, _ = training.predict_dataset(params, cfg, ds, batch_size=128)
            return tracemalloc.get_traced_memory()[1] - pred.nbytes, pred.nbytes
        finally:
            tracemalloc.stop()

    (small, _), (large, forecast) = extra(variates), extra(4 * variates)
    assert large < 1.05 * small + 16384, (small, large, forecast)


def test_a_pass_without_a_stack_streams_its_stages(monkeypatch):
    monkeypatch.setattr(slstm, "CHUNK_ROWS", CHUNK_ROWS)
    params, cfg = model(0, 1, False, False, mixer.AXIS_NONE, np.float32)
    ds = dataset(191)
    want = taped_oracle(params, cfg, ds)
    spy = Spy(monkeypatch)
    normalized = []
    normalize = mixer.revin_normalize
    monkeypatch.setattr(mixer, "revin_normalize",
                        lambda *args: normalized.append(args[1].shape) or normalize(*args))
    pred, _ = training.predict_dataset(params, cfg, ds, batch_size=128)
    assert pred.tobytes() == want.tobytes()
    # One batch of 191 windows in one view: three variates, then two.
    assert normalized == [(3 * 191, LOOKBACK), (2 * 191, LOOKBACK)]
    assert spy.made == [] and spy.chunks == [0]


@pytest.mark.parametrize("windows, buffers", [(448, 1), (385, 2)])
def test_a_pass_allocates_a_second_buffer_only_for_a_larger_batch(windows, buffers,
                                                                   monkeypatch):
    # 448 windows run as 128, 128, 128 and 64, so the first carve is the
    # largest; 385 run as 128, 128 and 129, and the last batch carves more.
    params, cfg = model(4, 2, True, True, mixer.AXIS_VARIATES, np.float32)
    ds = dataset(windows)
    want = taped_oracle(params, cfg, ds)
    spy = Spy(monkeypatch)
    pred, _ = training.predict_dataset(params, cfg, ds, batch_size=128)
    assert pred.tobytes() == want.tobytes()
    assert len(spy.made) == buffers
    assert spy.made[-1].size == max(buffer.size for buffer in spy.made)


class Recorded(slstm.Scratch):
    """An arena that keeps the shapes of its last carve."""

    def carve(self, dtype, shapes):
        self.shapes = list(shapes)
        return super().carve(dtype, shapes)


def test_a_stream_records_when_built_inside_a_tape():
    # Whether a stream records is read when it is built.  Inside a tape each
    # block's chunk buffers hold the centred, cell and normalizer history
    # its backward reads, before its step slab and normed rows; outside one
    # the blocks share one set of chunk buffers.
    rng = np.random.default_rng(5)
    cfg = BlockConfig(d_hidden=WIDTH, num_heads=2)
    blocks = [slstm.init_block_weights(cfg, rng) for _ in range(2)]
    x = T.Tensor(rng.normal(size=(12, WIDTH)))
    rows, d, batch = 12, WIDTH, 3
    own = [(9, batch, d), (rows, d)]
    arena = Recorded()
    with Tape() as tape:
        stream = slstm.Stream(cfg, blocks, batch, rows, rows, arena, np.float32)
        y = slstm._stack_tokens(stream, x)
        tape.backward(mae_loss(y, np.zeros(y.shape, np.float32)))
    assert arena.shapes == ([(4, rows, d), (rows, 1)] + [(rows, d)] * 4 + own) * 2
    first, second = stream.blocks
    assert len(first.history) == len(second.history) == 3
    assert not np.shares_memory(first.pre, second.pre)
    leaves = [x] + [t for w in blocks for _, t, _ in w.named_parameters()]
    assert all(t.grad is not None and t.grad.shape == t.shape for t in leaves)

    stream = slstm.Stream(cfg, blocks, batch, rows, rows, arena, np.float32)
    slstm._stack_tokens(stream, x)
    assert arena.shapes == [(4, rows, d), (rows, 1), (rows, d)] + own * 2
    first, second = stream.blocks
    assert first.history == second.history == [] and first.pre is second.pre


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


POISON = list(itertools.product((0, 4), (1, 2), (0.0, 0.1)))


def recorded_step(params, cfg, xs, target, scratch=None):
    """The forecast of a forward that records a tape, then every gradient."""
    leaves = [t for _, t, _ in params.named_parameters()]
    for t in leaves:
        t.zero_grad()
    with Tape() as tape:
        pred = mixer.forward_batch(params, cfg, xs, training=True,
                                   rng=np.random.default_rng(9), scratch=scratch)
        tape.backward(mae_loss(pred, target))
    return [pred.data] + [t.grad.copy() for t in leaves]


def step_case(conv, blocks, dropout):
    params, cfg = model(conv, blocks, True, True, mixer.AXIS_VARIATES, np.float32,
                        dropout=dropout)
    xs, ys = dataset(40).windows()
    return params, cfg, xs[:32], ys[:32]


@pytest.mark.parametrize("conv, blocks, dropout", POISON,
                         ids=["-".join(map(str, case)) for case in POISON])
def test_a_recording_block_reads_no_buffer_before_writing_it(conv, blocks, dropout,
                                                              monkeypatch):
    # A recording forward carves its blocks' whole-sequence history, masks
    # and normed rows from an arena of its own; with every new buffer NaN, a
    # read of a byte a block did not write shows in the forecast or a
    # gradient.
    case = step_case(conv, blocks, dropout)
    want = recorded_step(*case)
    monkeypatch.setattr(slstm, "Scratch", Poisoned)
    got = recorded_step(*case)
    assert all(np.isfinite(w).all() for w in want)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("conv, blocks, dropout", POISON,
                         ids=["-".join(map(str, case)) for case in POISON])
def test_a_recording_forward_carves_from_the_arena_it_is_given(conv, blocks, dropout):
    # As in fit's steps: a first step sizes the arena, which is then NaN
    # throughout, and the next step's forward carves its history from it.
    # A stale or unwritten byte shows in the forecast or a gradient.
    case = step_case(conv, blocks, dropout)
    want = recorded_step(*case)
    arena = slstm.Scratch()
    recorded_step(*case, scratch=arena)
    buffer = arena.buffer
    buffer.fill(NAN)
    got = recorded_step(*case, scratch=arena)
    assert arena.buffer is buffer and not (buffer == NAN).all()
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("record", [False, True], ids=["eval", "taped"])
def test_a_forward_keeps_no_reference_to_its_arena(record, monkeypatch):
    # Nothing of a forward's stack may outlive it, not even until the
    # garbage collector runs: every pass of an evaluation loop, or epoch of
    # a fit, would otherwise pile up the buffers of its arena.
    monkeypatch.setattr(slstm, "CHUNK_ROWS", CHUNK_ROWS)
    params, cfg, xs, target = step_case(4, 2, 0.1)
    arena = slstm.Scratch()
    gc.disable()
    try:
        if record:
            recorded_step(params, cfg, xs, target, scratch=arena)
        else:
            mixer.forward_batch(params, cfg, xs, scratch=arena)
        buffer = weakref.ref(arena.buffer)
        del arena
        assert buffer() is None
    finally:
        gc.enable()


def test_concurrent_passes_and_a_tape_equal_the_serial_runs():
    # Two threads score the same shared params at once while a third records
    # tapes on them: each pass owns its arena, so nothing crosses threads.
    params, cfg = model(4, 2, True, True, mixer.AXIS_VARIATES, np.float32,
                        variates=21, dropout=0.1)
    sets = [dataset(385, variates=21, seed=s) for s in (1, 2)]
    xs, ys = sets[0].windows()
    xs, target = xs[:32], ys[:32]

    def predict(ds):
        return training.predict_dataset(params, cfg, ds, batch_size=128)[0]

    def record():
        return recorded_step(params, cfg, xs, target)

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

