"""The fused block op against the unfused reference recurrence, in float64.

Forward outputs and every gradient (block weights and input rows) must agree
across conv widths, stack depths, batch sizes, single-token sequences,
training with dropout, and both view settings of the pipeline.
"""

import tracemalloc

import numpy as np
import pytest

from mixcast import mixer, slstm, tensor as T, training
from mixcast.slstm import BlockConfig
from mixcast.tensor import Tape, Tensor

import engine_reference as R
import slstm_reference as slstm_ref
from conftest import run_stack
from test_slstm import run_sequence

# Same arithmetic up to reassociation of a few float64 sums per step.
TOL = 1e-12


def leaves_of(blocks):
    return [t for w in blocks for _, t, _ in w.named_parameters()]


def forward_and_grads(run, leaves, weights):
    """Output of run() and the gradients of sum(weights * output)."""
    for t in leaves:
        t.zero_grad()
    with Tape() as tape:
        out = run()
        tape.backward(R.reduce_sum(R.mul(out, Tensor(weights, dtype=np.float64))))
    return out.data.copy(), [np.zeros_like(t.data) if t.grad is None else t.grad.copy()
                             for t in leaves]


def assert_close(got, want, what):
    scale = max(1.0, float(np.abs(want).max()))
    err = float(np.abs(got - want).max()) / scale
    assert err < TOL, f"{what}: relative deviation {err:.3e}"


def assert_grads_close(got, want, names=None):
    """Gradients agree entry by entry.  The reference multiplies recurrent
    weights densely, structural zeros included, but builds the dense matrix
    from the per-head leaf, so both gradients are per head."""
    names = names or [f"gradient {k}" for k in range(len(got))]
    for name, g, w in zip(names, got, want):
        assert_close(g, w, name)


def streamed(cfg, blocks, x, batch, tokens_per_chunk, stats=None):
    """The stack over the rows of x run as a Stream without a tape, chunk
    by chunk as forward_batch runs it."""
    rows = x.shape[0]
    chunk = tokens_per_chunk * batch
    stream = slstm.Stream(cfg, blocks, batch, rows, chunk, slstm.Scratch(), x.dtype, stats=stats)
    out = np.empty_like(x)
    for lo in range(0, rows, chunk):
        y = slstm._stack_tokens(stream, Tensor(x[lo:lo + chunk], dtype=x.dtype.type))
        out[lo:lo + chunk] = y.data
    return out


def make_stack(rng, conv_width, num_blocks, dropout=0.0, d=8, heads=2):
    cfg = BlockConfig(d_hidden=d, num_heads=heads, conv_width=conv_width,
                      dropout_rate=dropout)
    with T.precision(np.float64):
        blocks = [slstm.init_block_weights(cfg, rng) for _ in range(num_blocks)]
    return cfg, blocks


@pytest.mark.parametrize("conv_width", [0, 2, 4])
@pytest.mark.parametrize("num_blocks", [1, 2])
@pytest.mark.parametrize("batch,length", [(1, 5), (3, 6), (2, 1)])
def test_fused_stack_matches_reference(conv_width, num_blocks, batch, length):
    rng = np.random.default_rng(100 * conv_width + 10 * num_blocks + batch)
    cfg, blocks = make_stack(rng, conv_width, num_blocks)
    x = R.parameter(rng.uniform(-1, 1, size=(length * batch, cfg.d_hidden)),
                    dtype=np.float64)
    weights = rng.normal(size=x.shape)
    leaves = [x] + leaves_of(blocks)

    got, got_grads = forward_and_grads(
        lambda: run_stack(cfg, blocks, x, batch), leaves, weights)
    want, want_grads = forward_and_grads(
        lambda: slstm_ref.to_rows(slstm_ref.stack(cfg, blocks,
                                                  slstm_ref.from_rows(x, batch))),
        leaves, weights)
    assert_close(got, want, "forward")
    names = ["input"] + [n for w in blocks for n, _, _ in w.named_parameters()]
    assert_grads_close(got_grads, want_grads, names)


@pytest.mark.parametrize("conv_width", [0, 4])
def test_fused_stack_matches_reference_training_with_dropout(conv_width):
    # One [L*B, D] dropout draw per block consumes the generator exactly like
    # the reference's L draws of [B, D], so equal seeds give equal masks.
    rng = np.random.default_rng(7 + conv_width)
    cfg, blocks = make_stack(rng, conv_width, 2, dropout=0.3)
    batch, length = 3, 5
    x = R.parameter(rng.uniform(-1, 1, size=(length * batch, cfg.d_hidden)),
                    dtype=np.float64)
    weights = rng.normal(size=x.shape)
    leaves = [x] + leaves_of(blocks)

    got, got_grads = forward_and_grads(
        lambda: run_stack(cfg, blocks, x, batch, True, np.random.default_rng(11)),
        leaves, weights)
    want, want_grads = forward_and_grads(
        lambda: slstm_ref.to_rows(slstm_ref.stack(
            cfg, blocks, slstm_ref.from_rows(x, batch), True,
            np.random.default_rng(11))), leaves, weights)
    eval_out = run_stack(cfg, blocks, x, batch).data
    assert not np.array_equal(got, eval_out)  # dropout was active
    assert_close(got, want, "forward")
    assert_grads_close(got_grads, want_grads)


@pytest.mark.parametrize("conv_width", [0, 2, 4])
@pytest.mark.parametrize("num_blocks", [1, 2])
@pytest.mark.parametrize("tokens_per_chunk", [1, 2, 3])
@pytest.mark.parametrize("training", [False, True])
def test_token_chunks_match_reference(conv_width, num_blocks, tokens_per_chunk, training,
                                      monkeypatch):
    # 7 tokens run as a stream of chunks of 1, 2 or 3 tokens without a tape,
    # so the conv tail of up to 3 tokens crosses one seam or several.  With
    # a tape they run as one chunk writing the whole history, and the
    # dropout mask is drawn 1 row, 2 tokens, or 3 tokens and a row at a time.
    batch, length = 3, 7
    budget = {1: 1, 2: 2 * batch, 3: 3 * batch + 1}[tokens_per_chunk]
    monkeypatch.setattr(slstm, "CHUNK_ROWS", budget)
    rng = np.random.default_rng(conv_width + 10 * num_blocks + 100 * tokens_per_chunk)
    cfg, blocks = make_stack(rng, conv_width, num_blocks, dropout=0.3 if training else 0.0)
    x = R.parameter(rng.uniform(-1, 1, size=(length * batch, cfg.d_hidden)),
                    dtype=np.float64)

    def fused():
        return run_stack(cfg, blocks, x, batch, training, np.random.default_rng(5))

    def reference():
        return slstm_ref.to_rows(slstm_ref.stack(cfg, blocks, slstm_ref.from_rows(x, batch),
                                                 training, np.random.default_rng(5)))

    if not training:
        got = streamed(cfg, blocks, x.data, batch, tokens_per_chunk)
        assert_close(got, reference().data, "forward")
        assert got.tobytes() == fused().data.tobytes()
        return
    weights = rng.normal(size=x.shape)
    leaves = [x] + leaves_of(blocks)
    got, got_grads = forward_and_grads(fused, leaves, weights)
    want, want_grads = forward_and_grads(reference, leaves, weights)
    assert_close(got, want, "forward")
    assert_grads_close(got_grads, want_grads)


def test_consecutive_draws_continue_one_stream():
    # Chunked dropout draws one mask per chunk from the same generator; the
    # masks equal one draw over all rows.
    whole = np.random.default_rng(9).random(size=(7 * 3, 8))
    rng = np.random.default_rng(9)
    parts = [rng.random(size=(rows, 8)) for rows in (9, 9, 3)]
    assert np.concatenate(parts).tobytes() == whole.tobytes()


@pytest.mark.parametrize("conv_width", [0, 4])
def test_chunked_dropout_block_is_bitwise_one_chunk(conv_width, monkeypatch):
    rng = np.random.default_rng(60 + conv_width)
    cfg, blocks = make_stack(rng, conv_width, 2, dropout=0.3)
    x = Tensor(rng.uniform(-1, 1, size=(7 * 3, cfg.d_hidden)), dtype=np.float64)
    whole = run_stack(cfg, blocks, x, 3, True, np.random.default_rng(2)).data
    monkeypatch.setattr(slstm, "CHUNK_ROWS", 6)
    chunked = run_stack(cfg, blocks, x, 3, True, np.random.default_rng(2)).data
    assert chunked.tobytes() == whole.tobytes()


def test_a_recording_block_draws_its_mask_in_chunk_row_pieces(monkeypatch):
    # 32,768 rows: the mask drawn CHUNK_ROWS rows at a time is bit-identical
    # to one draw over all rows, without that draw's float64 [rows, D]
    # temporary (16.8 MB here).
    rng = np.random.default_rng(63)
    cfg = BlockConfig(d_hidden=64, num_heads=4, conv_width=4, dropout_rate=0.1)
    w = slstm.init_block_weights(cfg, rng)
    rows = 32768
    x = Tensor(rng.uniform(-1, 1, size=(rows, 64)).astype(np.float32))

    def run(budget):
        monkeypatch.setattr(slstm, "CHUNK_ROWS", budget)
        tracemalloc.start()
        try:
            with Tape():
                out = run_stack(cfg, [w], x, 64, True, np.random.default_rng(1))
            return out.data, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one_draw, one_draw_peak = run(rows)
    pieces, peak = run(2048)
    assert pieces.tobytes() == one_draw.tobytes()
    assert peak < one_draw_peak - rows * 64 * 8 * 0.8, (peak, one_draw_peak)


def test_eval_block_peak_memory_is_bounded_by_chunks():
    # Streamed over 16 chunks only the output is whole-sequence; the
    # intermediates live in chunk-sized buffers.
    rng = np.random.default_rng(61)
    cfg = BlockConfig(d_hidden=16, num_heads=4, conv_width=4)
    w = slstm.init_block_weights(cfg, rng)
    batch = 64
    x = rng.uniform(-1, 1, size=(16 * slstm.CHUNK_ROWS, 16)).astype(np.float32)
    tracemalloc.start()
    try:
        out = streamed(cfg, [w], x, batch, slstm.CHUNK_ROWS // batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * out.nbytes, f"peak {peak} B for {out.nbytes} B of output"


def test_recurrent_gradients_fill_every_head_block():
    rng = np.random.default_rng(62)
    cfg, blocks = make_stack(rng, 2, 2, d=12, heads=3)
    x = R.parameter(rng.uniform(-1, 1, size=(5 * 4, 12)), dtype=np.float64)
    _, grads = forward_and_grads(lambda: run_stack(cfg, blocks, x, 4),
                                 leaves_of(blocks), rng.normal(size=x.shape))
    for (name, _, _), g in zip([t for w in blocks for t in w.named_parameters()], grads):
        if name.startswith("cell.r_"):
            assert g.shape == (3, 4, 4), name
            assert np.all(g != 0.0), name


@pytest.mark.parametrize("mix_view", [True, False])
def test_views_in_one_stack_call_match_reference_per_view(mix_view, monkeypatch):
    rng = np.random.default_rng(31)
    cfg = mixer.MixerConfig(lookback=8, horizon=4, num_variates=3, embed_dim=8,
                            num_blocks=2, mix_view=mix_view,
                            block=BlockConfig(d_hidden=8, num_heads=2, conv_width=2))
    with T.precision(np.float64):
        params = mixer.init_mixer_params(cfg, rng)
    batch, length = 2, cfg.num_variates + 1
    tokens = R.parameter(rng.uniform(-1, 1, size=(length * batch, 8)), dtype=np.float64)
    w_f, w_r = rng.normal(size=tokens.shape), rng.normal(size=tokens.shape)
    leaves = [tokens] + leaves_of(params.blocks)

    calls = []
    stack = slstm._stack_tokens
    monkeypatch.setattr(slstm, "_stack_tokens",
                        lambda stream, x: calls.append(stream.blocks[0].batch) or stack(stream, x))

    # Both views side by side, or the one view standing for both.
    def fused():
        packed = mixer.pack_views(tokens, None, batch, mix_view)
        views = run_stack(cfg.block, params.blocks, packed, (2 if mix_view else 1) * batch)
        if mix_view:
            # The interleaved view rows read as each token's two views side by side.
            views = R.reshape(views, (tokens.shape[0], 2 * tokens.shape[1]))
            return R.mul(views, Tensor(np.hstack([w_f, w_r])))
        return R.mul(views, Tensor(w_f + w_r))

    def reference():
        out_f = slstm_ref.to_rows(slstm_ref.stack(
            cfg.block, params.blocks, slstm_ref.from_rows(tokens, batch)))
        if not mix_view:
            return R.mul(out_f, Tensor(w_f + w_r))
        rev = slstm_ref.from_rows(R.reverse(tokens, axis=1), batch)
        out_r = slstm_ref.to_rows(slstm_ref.stack(cfg.block, params.blocks, rev))
        return R.concat([R.mul(out_f, Tensor(w_f)), R.mul(out_r, Tensor(w_r))], axis=1)

    ones = np.ones((tokens.shape[0], (2 if mix_view else 1) * tokens.shape[1]))
    got, got_grads = forward_and_grads(fused, leaves, ones)
    assert calls == [2 * batch if mix_view else batch]
    want, want_grads = forward_and_grads(reference, leaves, ones)
    assert_close(got, want, "forward")
    assert_grads_close(got_grads, want_grads)


@pytest.mark.parametrize("bias,gate", [("b_i", "input"), ("b_f", "forget"),
                                       ("b_z", "cell-input"), ("b_o", "output")])
def test_fused_nonfinite_preactivation_names_gate(bias, gate):
    p = slstm.init_slstm_params(4, 6, 2, np.random.default_rng(2))
    getattr(p, bias).data[0, 0] = np.inf
    with pytest.raises(FloatingPointError, match=f"in {gate} gate"):
        run_sequence(p, np.zeros((3, 4), dtype=np.float32))


@pytest.mark.parametrize("rows", [0, 3])
def test_a_block_rejects_rows_that_are_not_whole_tokens(rows):
    cfg = BlockConfig(d_hidden=8, num_heads=2)
    w = slstm.init_block_weights(cfg, np.random.default_rng(5))
    stream = slstm.Stream(cfg, [w], 2, 4, 4, slstm.Scratch(), np.float32)
    with pytest.raises(T.ShapeError, match=f"^{rows} rows do not hold whole tokens of batch 2$"):
        slstm._block(stream.blocks[0], Tensor(np.zeros((rows, 8), np.float32)))


def test_stabilizer_stats_report_the_reference_gap():
    rng = np.random.default_rng(4)
    with T.precision(np.float64):
        p = slstm.init_slstm_params(4, 6, 2, rng)
        xs = rng.uniform(-1, 1, size=(9, 4))
        stats = slstm.StabilizerStats()
        run_sequence(p, xs, stats=stats)
        gap = np.inf
        state = slstm_ref.zero_state(1, 6)
        for x in xs:
            prev_m = state.m.data
            state, gates = slstm_ref.cell_step(p, x, state)
            gap = min(gap, float(np.abs(gates.f_tilde.data + prev_m
                                        - gates.i_tilde.data).min()))
    assert stats.min_gap == pytest.approx(gap, rel=1e-12)


@pytest.mark.parametrize("conv_width", [0, 4])
def test_input_gate_bias_shift_leaves_block_output_unchanged(conv_width):
    # From the zero state a per-unit constant added to the input-gate
    # pre-activation scales c and n alike, so h does not move.
    rng = np.random.default_rng(40 + conv_width)
    cfg, blocks = make_stack(rng, conv_width, 1)
    x = Tensor(rng.uniform(-1, 1, size=(6 * 3, cfg.d_hidden)), dtype=np.float64)
    before = run_stack(cfg, blocks, x, 3).data
    blocks[0].cell.b_i.data += rng.uniform(-2.0, 2.0, size=(1, cfg.d_hidden))
    after = run_stack(cfg, blocks, x, 3).data
    assert np.abs(after - before).max() < 1e-12


def test_eval_keeps_no_gate_history():
    # 16,000 rows of batch 8 stream as 8 chunks without a tape, and run as
    # one with.
    rng = np.random.default_rng(5)
    cfg = BlockConfig(d_hidden=16, num_heads=4, conv_width=4, dropout_rate=0.1)
    w = slstm.init_block_weights(cfg, rng)
    xs = R.parameter(rng.uniform(-1, 1, size=(16000, 16)))

    def peak(run, record):
        tracemalloc.start()
        try:
            if record:
                with Tape():
                    run()
            else:
                run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # Without a tape a block holds chunk-sized buffers and its output; a
    # tape holds the whole-sequence gate, cell and normalizer history.
    assert (peak(lambda: streamed(cfg, [w], xs.data, 8, 250), False)
            < 0.6 * peak(lambda: run_stack(cfg, [w], xs, 8), True))


def training_step_nodes(num_variates, num_blocks, conv_width):
    rng = np.random.default_rng(6)
    block = BlockConfig(d_hidden=64, num_heads=4, conv_width=conv_width, dropout_rate=0.1)
    cfg = mixer.MixerConfig(lookback=96, horizon=96, num_variates=num_variates,
                            embed_dim=64, num_blocks=num_blocks, block=block)
    params = mixer.init_mixer_params(cfg, rng)
    xs = rng.normal(size=(4, num_variates, 96)).astype(np.float32)
    ys = rng.normal(size=(4, num_variates, 96)).astype(np.float32)
    with Tape() as tape:
        pred = mixer.forward_batch(params, cfg, xs, training=True, rng=rng)
        loss = training.mae_loss(pred, ys)
        nodes = len(tape)
        tape.backward(loss)
    return nodes


def test_training_step_tape_has_at_most_100_nodes():
    nodes = training_step_nodes(7, 1, 0)
    assert nodes <= 100, f"{nodes} tape nodes"


@pytest.mark.parametrize("num_blocks", [1, 2, 3])
def test_stack_records_one_tape_node_per_block(num_blocks):
    rng = np.random.default_rng(num_blocks)
    cfg, blocks = make_stack(rng, 4, num_blocks, dropout=0.2)
    x = R.parameter(rng.uniform(-1, 1, size=(12, cfg.d_hidden)), dtype=np.float64)
    with Tape() as tape:
        run_stack(cfg, blocks, x, 3, True, rng)
        assert len(tape) == num_blocks
