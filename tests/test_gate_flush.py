"""The input-gate flush against the unflushed recurrence, kept as its oracle.

Setting ``slstm._FLUSH`` to infinity puts the flush threshold at -inf, so
nothing is flushed and the recurrence runs as it did before the flush: every
input-gate argument goes through the exponential, subnormal results and all.
A forget bias well above its init value of 1 makes the stabilizer grow fast,
so a few dozen tokens reach the region where the input gate dies.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from mixcast import mixer, slstm, tensor as T, training
from mixcast.slstm import BlockConfig
from mixcast.tensor import Tape, Tensor

from test_slstm import random_cell, run_sequence

# A forget bias per dtype that takes the input gate past the flush threshold
# (-51.6 in float32, -372.2 in float64) within about 10 and 32 tokens.
FORGET_BIAS = {np.float32: 6.0, np.float64: 12.0}
VARIATES, LOOKBACK, HORIZON, WIDTH, BATCH = 40, 8, 4, 8, 3


@pytest.fixture
def unflushed(monkeypatch):
    def off():
        monkeypatch.setattr(slstm, "_FLUSH", math.inf)
    return off


def subnormal_count(a):
    return int(np.count_nonzero((a != 0) & (np.abs(a) < np.finfo(a.dtype).tiny)))


def model(dtype, conv, blocks, dropout, ref_dtype=None):
    """A model initialized in float64, rounded to dtype, with a raised forget
    bias; with ``ref_dtype`` its values are then widened to it, so the two
    share every weight."""
    cfg = mixer.MixerConfig(lookback=LOOKBACK, horizon=HORIZON, num_variates=VARIATES,
                            embed_dim=WIDTH, num_blocks=blocks,
                            block=BlockConfig(d_hidden=WIDTH, num_heads=2, conv_width=conv,
                                              dropout_rate=dropout))
    with T.precision(np.float64):
        params = mixer.init_mixer_params(cfg, np.random.default_rng(7))
    for w in params.blocks:
        w.cell.b_f.data[:] = FORGET_BIAS[dtype]
    for _, t, _ in params.named_parameters():
        t.data = t.data.astype(dtype).astype(ref_dtype or dtype)
    return params


def windows(dtype):
    rng = np.random.default_rng(8)
    return (rng.normal(size=(BATCH, VARIATES, LOOKBACK)).astype(dtype),
            rng.normal(size=(BATCH, VARIATES, HORIZON)).astype(dtype))


def training_step(params, xs, ys, stats=None):
    """The forecast and every parameter gradient of one taped step."""
    leaves = [t for _, t, _ in params.named_parameters()]
    for t in leaves:
        t.zero_grad()
    with Tape() as tape:
        pred = mixer.forward_batch(params, xs, training=True,
                                   rng=np.random.default_rng(9), stabilizer=stats)
        tape.backward(training.mae_loss(pred, ys))
    return [pred.data.copy()] + [t.grad.copy() for t in leaves]


def assert_equal_or_closer(flushed, oracle, reference, names):
    """Each flushed array equals the unflushed one byte for byte; where it
    does not, the largest deviation is stated, and a float32 array must sit
    no further from the float64 reference than the unflushed one."""
    for name, got, want, ref in zip(names, flushed, oracle, reference or [None] * len(names)):
        if np.array_equal(got, want):
            continue
        deviation = float(np.abs(got - want).max())
        assert ref is not None, f"{name}: flushed differs from unflushed by {deviation:.3e}"
        got_err, want_err = (float(np.abs(a - ref).max()) for a in (got, want))
        assert got_err <= want_err, (
            f"{name}: flushed differs from unflushed by {deviation:.3e} and sits "
            f"{got_err:.3e} from float64, against {want_err:.3e}")


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("conv", [0, 4])
@pytest.mark.parametrize("blocks", [1, 2])
@pytest.mark.parametrize("dropout", [0.0, 0.1])
def test_flushed_training_step_matches_the_unflushed_one(dtype, conv, blocks, dropout,
                                                         unflushed):
    params = model(dtype, conv, blocks, dropout)
    xs, ys = windows(dtype)
    names = ["forecast"] + [name for name, _, _ in params.named_parameters()]
    stats = slstm.StabilizerStats()
    flushed = training_step(params, xs, ys, stats)
    # The case reaches the dead region, and leaves some of it alive.
    assert 0.0 < stats.flushed_entries / stats.gate_entries < 1.0
    assert stats.first_dead_token is not None
    reference = None
    if dtype == np.float32:
        wide = model(dtype, conv, blocks, dropout, ref_dtype=np.float64)
        reference = training_step(wide, xs.astype(np.float64), ys.astype(np.float64))
    unflushed()
    oracle = training_step(params, xs, ys)
    assert_equal_or_closer(flushed, oracle, reference, names)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("conv", [0, 4])
@pytest.mark.parametrize("blocks", [1, 2])
def test_flushed_eval_forward_matches_the_unflushed_one(dtype, conv, blocks, unflushed,
                                                        monkeypatch):
    # Chunks of 3 tokens carry the state, dead steps included, across seams.
    monkeypatch.setattr(slstm, "CHUNK_ROWS", 3 * 2 * BATCH)
    params = model(dtype, conv, blocks, 0.0)
    xs, _ = windows(dtype)
    stats = slstm.StabilizerStats()
    flushed = mixer.forward_batch(params, xs, stabilizer=stats).data
    assert stats.first_dead_token is not None
    unflushed()
    oracle = mixer.forward_batch(params, xs).data
    assert_equal_or_closer([flushed], [oracle], None, ["forecast"])


def census_stream(dtype, record, chunk_tokens=None, stats=None, tokens=80, batch=4):
    """One block over ``tokens`` tokens of a batch of 4, with a raised forget
    bias, and its stream.  Recording, it runs as one chunk and returns the
    mean absolute output as a loss on its tape; otherwise it runs in chunks
    of ``chunk_tokens`` and returns the output."""
    rng = np.random.default_rng(11)
    cfg = BlockConfig(d_hidden=WIDTH, num_heads=2)
    with T.precision(dtype):
        w = slstm.init_block_weights(cfg, rng)
    w.cell.b_f.data[:] = FORGET_BIAS[dtype]
    x = rng.uniform(-1, 1, size=(tokens * batch, WIDTH)).astype(dtype)
    rows = x.shape[0]
    chunk = rows if chunk_tokens is None else chunk_tokens * batch
    if record:
        with Tape() as tape:
            stream = slstm.Stream(cfg, [w], batch, rows, chunk, slstm.Scratch(), dtype,
                                  stats=stats)
            y = slstm._stack_tokens(stream, Tensor(x, dtype=dtype))
            return training.mae_loss(y, np.zeros_like(x)), stream, tape
    stream = slstm.Stream(cfg, [w], batch, rows, chunk, slstm.Scratch(), dtype, stats=stats)
    outs = [slstm._stack_tokens(stream, Tensor(x[lo:lo + chunk], dtype=dtype)).data
            for lo in range(0, rows, chunk)]
    return np.concatenate(outs), stream, None


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_no_subnormal_in_the_gate_history_or_its_gradients(dtype, unflushed):
    loss, stream, tape = census_stream(dtype, record=True)
    gates = stream.blocks[0].pre
    i_history = gates[2].copy()
    tape.backward(loss)
    d_z, d_i = gates[0], gates[2]
    assert (i_history == 0).any(), "the case never reaches the dead region"
    assert [subnormal_count(a) for a in (i_history, d_z, d_i)] == [0, 0, 0]

    # Unflushed, the same case holds subnormals in each of the three.
    unflushed()
    loss, stream, tape = census_stream(dtype, record=True)
    gates = stream.blocks[0].pre
    counts = [subnormal_count(gates[2])]
    tape.backward(loss)
    counts += [subnormal_count(gates[0]), subnormal_count(gates[2])]
    assert all(counts), counts


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_stats_read_the_flush_off_a_run(dtype):
    # A flushed gate is exactly 0 in the history, and no other gate is:
    # every argument at or above the threshold has a normal exponential.
    stats = slstm.StabilizerStats()
    _, stream, _ = census_stream(dtype, record=True, stats=stats)
    dead = stream.blocks[0].pre[2] == 0
    steps = dead.reshape(-1, 4 * WIDTH).all(axis=1)
    assert stats.gate_entries == dead.size
    assert stats.flushed_entries == np.count_nonzero(dead)
    assert stats.flushed_entries / stats.gate_entries == np.count_nonzero(dead) / dead.size
    assert stats.first_dead_token == int(np.argmax(steps)) > 0
    assert 0.5 < stats.flushed_entries / stats.gate_entries < 1.0

    # The path without a tape, which skips a dead step's update, reads the
    # same.
    streamed = slstm.StabilizerStats()
    census_stream(dtype, record=False, chunk_tokens=7, stats=streamed)
    assert (streamed.gate_entries, streamed.flushed_entries, streamed.first_dead_token) == \
        (stats.gate_entries, stats.flushed_entries, stats.first_dead_token)


@pytest.mark.parametrize("tokens", [1, 3])
def test_first_token_normalizer_underflow_is_named(tokens):
    # f̃ − ĩ near 110 puts the first token's input gate below float32's
    # smallest subnormal, so n = i = 0 there and h would be 0/0.
    p = random_cell(np.random.default_rng(12), dtype=np.float32)
    p.b_f.data[:] = 110.0
    xs = np.random.default_rng(13).uniform(-1, 1, size=(tokens, 4)).astype(np.float32)
    with pytest.raises(FloatingPointError, match="^normalizer underflow at the first token"):
        run_sequence(p, xs)


def test_decoding_the_learned_token_names_the_normalizer_underflow():
    cfg = mixer.MixerConfig(lookback=LOOKBACK, horizon=HORIZON, num_variates=3,
                            embed_dim=WIDTH, num_blocks=1,
                            block=BlockConfig(d_hidden=WIDTH, num_heads=2))
    params = mixer.init_mixer_params(cfg, np.random.default_rng(14))
    params.blocks[0].cell.b_f.data[:] = 110.0
    with pytest.raises(FloatingPointError, match="^normalizer underflow at the first token"):
        mixer.decode_init_token(params)


def test_first_token_is_never_flushed(unflushed):
    # f̃ − ĩ near 60: the first token's gate, about 1e-26, is below the
    # threshold but normal, and n is that gate, so flushing it would make h
    # 0/0.  The first token is exempt: the run is finite, and equal to the
    # unflushed path.
    p = random_cell(np.random.default_rng(12), dtype=np.float32)
    p.b_f.data[:] = 60.0
    xs = np.random.default_rng(13).uniform(-1, 1, size=(5, 4)).astype(np.float32)
    flushed = run_sequence(p, xs)
    assert np.isfinite(flushed).all()
    unflushed()
    assert np.array_equal(flushed, run_sequence(p, xs))


SPIKE = 16


def spiked_cell(gates, live=False, at=SPIKE):
    """A float32 cell with the raised forget bias, over 20 tokens of zero
    rows but at token ``at``, where feature 0 is 3e38: the input weights of
    ``gates`` read it at 10, beyond float32's largest value, and the other
    gates at 0.  The input gate is dead from about token 9 on; with ``live``
    feature 1 lifts ĩ far above the stabilizer at ``at``, so that step is
    live."""
    p = random_cell(np.random.default_rng(31), dtype=np.float32)
    p.b_f.data[:] = FORGET_BIAS[np.float32]
    for gate in slstm._GATES:
        weight = getattr(p, "w_" + gate).data
        weight[:, :2] = 0.0
        weight[:, 0] = 10.0 if gate in gates else 0.0
    p.w_i.data[:, 1] = 1.0
    xs = np.zeros((20, 4), np.float32)
    xs[at, 0] = 3e38
    xs[at, 1] = 1e3 if live else 0.0
    return p, xs


def nonfinite_gate(p, xs):
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError) as caught:
        run_sequence(p, xs)
    return str(caught.value)


def assert_dead_before_the_spike(p, xs):
    flushed = []
    for tokens in (SPIKE - 1, SPIKE):
        stats = slstm.StabilizerStats()
        run_sequence(p, xs[:tokens], stats)
        flushed.append(stats.flushed_entries)
    assert flushed[1] - flushed[0] == p.d_hidden, "the step before the spike is not dead"


@pytest.mark.parametrize("gates,named", [("o", "output"), ("i", "input"), ("f", "forget"),
                                         ("zo", "cell-input")])
def test_a_nonfinite_gate_after_a_dead_step_is_named_as_four_gates_name_it(
        gates, named, unflushed):
    # The step after a dead one checks o, i and f first; when one fails, z̃
    # is made before the gate is named, so an infinite z̃ beside o is named
    # first, as the check order of a four-gate step has it.
    p, xs = spiked_cell(gates)
    assert_dead_before_the_spike(p, xs)
    assert nonfinite_gate(p, xs) == f"non-finite pre-activation in {named} gate"
    unflushed()
    assert nonfinite_gate(p, xs) == f"non-finite pre-activation in {named} gate"


def test_an_infinite_cell_input_is_named_on_a_step_that_revives_only(unflushed):
    # A dead step reads no z̃, so an infinite one there goes unreported; on
    # a step that revives it is made and checked.
    p, xs = spiked_cell("z")
    assert_dead_before_the_spike(p, xs)
    with np.errstate(over="ignore"):
        assert np.isfinite(run_sequence(p, xs)).all()
    p, xs = spiked_cell("z", live=True)
    assert nonfinite_gate(p, xs) == "non-finite pre-activation in cell-input gate"
    unflushed()
    assert nonfinite_gate(p, xs) == "non-finite pre-activation in cell-input gate"


def test_an_infinite_cell_input_on_the_first_dead_step_goes_unreported():
    # The first dead step after live ones makes no z̃ either: the spike
    # there reaches no check, and the step leaves the output finite.
    p, xs = spiked_cell("z")
    stats = slstm.StabilizerStats()
    run_sequence(p, xs[:SPIKE], stats)
    first = stats.first_dead_token
    assert first is not None and first < SPIKE, "the case never reaches the dead region"
    p, xs = spiked_cell("z", at=first)
    stats = slstm.StabilizerStats()
    with np.errstate(over="ignore"):
        assert np.isfinite(run_sequence(p, xs, stats)).all()
    assert stats.first_dead_token == first


@dataclass
class Run:
    """One run of a recurrence as :class:`ProductSpy` reads it."""

    steps: int
    dead: int = 0          # steps whose every input-gate entry was flushed
    z_input: int = 0       # z's input products (one per chunk that makes z̃)
    z_recurrent: int = 0   # products into z's recurrent slab (one per z̃)
    oif: int = 0           # products of the o, i and f gates (one per step)
    oif_before_z: int | None = None  # o, i, f products before the first of z


class ProductSpy:
    """Reads off the matmuls of ``slstm`` and the stabilizer counts, per run
    of a recurrence, into one :class:`Run` each in ``runs``.  A run counts
    its dead steps only if it is given ``stats``; under a tape a step whose
    every entry is flushed counts as dead, though the run does not skip it."""

    def __init__(self, monkeypatch):
        self.runs, self.cell = [], None
        spy = self

        class Numpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def matmul(a, b, out=None):
                spy.product(out)
                return np.matmul(a, b, out=out)

        run, count_flushed = slstm._BlockChunks.run, slstm.StabilizerStats.count_flushed

        def spied(cell, x, x_if, hs, cells=()):
            self.cell = cell
            self.runs.append(Run(x.shape[0] // cell.batch))
            try:
                return run(cell, x, x_if, hs, cells)
            finally:
                self.cell = None

        def counted(stats, token, entries, flushed):
            if self.cell is not None and flushed == entries:
                self.runs[-1].dead += 1
            return count_flushed(stats, token, entries, flushed)

        monkeypatch.setattr(slstm, "np", Numpy())
        monkeypatch.setattr(slstm._BlockChunks, "run", spied)
        monkeypatch.setattr(slstm.StabilizerStats, "count_flushed", counted)

    def product(self, out):
        cell = self.cell
        if cell is None or out is None:
            return
        counts = self.runs[-1]
        if np.may_share_memory(out, cell.rec[1:]):
            counts.oif += 1
            return
        if np.may_share_memory(out, cell.pre[0]):
            counts.z_input += 1
        elif np.may_share_memory(out, cell.rec[0]):
            counts.z_recurrent += 1
        else:
            return
        if counts.oif_before_z is None:
            counts.oif_before_z = counts.oif


def assert_z_is_made_on_the_live_steps_only(spy):
    """Every step made one o, i and f product; z's recurrent product was
    skipped on exactly the dead steps, and its input product in exactly the
    chunks with no live step."""
    assert spy.runs
    for run in spy.runs:
        assert run.oif == run.steps
        assert run.z_recurrent == run.steps - run.dead
        assert run.z_input == (run.dead < run.steps)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("conv", [0, 4])
@pytest.mark.parametrize("blocks", [1, 2])
def test_dead_steps_skip_the_cell_input_and_match_the_unflushed_path(dtype, conv, blocks,
                                                                     unflushed, monkeypatch):
    # Chunks of 3 tokens: some are dead throughout and skip z's input product.
    monkeypatch.setattr(slstm, "CHUNK_ROWS", 3 * 2 * BATCH)
    params = model(dtype, conv, blocks, 0.0)
    xs, _ = windows(dtype)
    with monkeypatch.context() as patch:
        spy = ProductSpy(patch)
        got = mixer.forward_batch(params, xs, stabilizer=slstm.StabilizerStats()).data
    assert_z_is_made_on_the_live_steps_only(spy)
    assert any(not run.z_input for run in spy.runs) and any(run.dead for run in spy.runs), \
        "no chunk or step skipped z: the comparison would be vacuous"
    unflushed()
    with monkeypatch.context() as patch:
        spy = ProductSpy(patch)
        want = mixer.forward_batch(params, xs, stabilizer=slstm.StabilizerStats()).data
    # The unflushed path has no dead steps: every product of z is made.
    assert_z_is_made_on_the_live_steps_only(spy)
    assert not any(run.dead for run in spy.runs)
    assert got.tobytes() == want.tobytes()


def revival_stream(dtype, chunk_tokens, tokens=20, batch=2):
    """One block whose input gate dies, comes back at the spike tokens 10
    and 12, and dies again, run over chunks of ``chunk_tokens`` tokens.

    The forget bias is a tenth of the flush threshold's size F, so the
    stabilizer grows by about F/10 a token, and every unit's input gate
    reads feature 0 of the normed rows at a weight that makes ĩ about ±F/2:
    rows are -e0 (ĩ about -F/2, dead from token 5 on) but at the spike
    tokens, +e0 (ĩ about +F/2, live while the token is below 14)."""
    rng = np.random.default_rng(21)
    cfg = BlockConfig(d_hidden=WIDTH, num_heads=2)
    with T.precision(dtype):
        w = slstm.init_block_weights(cfg, rng)
    size = -0.5 * math.log(np.finfo(dtype).smallest_subnormal)  # F, also when unflushed
    w.cell.b_f.data[:] = 0.1 * size
    w.cell.w_i.data[:] = 0.0
    w.cell.w_i.data[:, 0] = 0.5 * size / math.sqrt(WIDTH - 1)
    x = 0.01 * rng.normal(size=(tokens, batch, WIDTH))
    x[:, :, 0] -= 1.0
    x[[10, 12], :, 0] += 2.0
    x = x.reshape(-1, WIDTH).astype(dtype)
    rows, chunk = x.shape[0], chunk_tokens * batch
    stream = slstm.Stream(cfg, [w], batch, rows, chunk, slstm.Scratch(), dtype,
                          stats=slstm.StabilizerStats())
    return np.concatenate([slstm._stack_tokens(stream, Tensor(x[lo:lo + chunk], dtype=dtype)).data
                           for lo in range(0, rows, chunk)])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("chunk_tokens", [4, 20])
def test_a_chunk_that_starts_dead_and_revives_matches_the_unflushed_path(
        dtype, chunk_tokens, unflushed, monkeypatch):
    with monkeypatch.context() as patch:
        spy = ProductSpy(patch)
        got = revival_stream(dtype, chunk_tokens)
    assert_z_is_made_on_the_live_steps_only(spy)
    assert any(run.dead for run in spy.runs), "no step skipped z"
    # A chunk that starts dead and revives makes its first z product after
    # its first step: more than one o, i and f product comes before it.
    # Chunks of 4 tokens: [8, 12) starts dead and revives at token 10,
    # [12, 16) starts live at its spike token, and [16, 20) is dead
    # throughout, so it makes no z product.
    assert [run.oif_before_z for run in spy.runs] == (
        [1, 1, 3, 1, None] if chunk_tokens == 4 else [1])
    unflushed()
    want = revival_stream(dtype, chunk_tokens)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("conv", [0, 4])
def test_a_taped_forward_makes_the_cell_input_on_every_step(conv, monkeypatch):
    params = model(np.float32, conv, 2, 0.1)
    xs, ys = windows(np.float32)
    stats = slstm.StabilizerStats()
    with monkeypatch.context() as patch:
        spy = ProductSpy(patch)
        training_step(params, xs, ys, stats)
    assert stats.first_dead_token is not None, "the case never reaches the dead region"
    assert any(run.dead for run in spy.runs)
    assert spy.runs and all(run.z_input == 1 and run.z_recurrent == run.oif == run.steps
                            for run in spy.runs)
