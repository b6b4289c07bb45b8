"""Cell, block, and stack tests against independent numpy references."""

import contextlib

import numpy as np
import pytest

from mixcast import slstm, tensor as T
from mixcast.slstm import BlockConfig
from mixcast.tensor import ShapeError, Tape, Tensor

import engine_reference as R
import slstm_reference as slstm_ref
from conftest import run_stack


def np_sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


def unstabilized_reference(p: slstm.SLstmParams, xs: np.ndarray) -> np.ndarray:
    """Plain-numpy recurrence with raw exponential gates and no stabilizer."""
    wz, wi, wf, wo = p.w_z.data, p.w_i.data, p.w_f.data, p.w_o.data
    rz, ri, rf, ro = (slstm_ref.block_diagonal(r).data for r in (p.r_z, p.r_i, p.r_f, p.r_o))
    bz, bi, bf, bo = p.b_z.data[0], p.b_i.data[0], p.b_f.data[0], p.b_o.data[0]
    d = wz.shape[0]
    c = np.zeros(d)
    n = np.zeros(d)
    h = np.zeros(d)
    out = []
    for x in xs:
        i = np.exp(wi @ x + ri @ h + bi)
        f = np.exp(wf @ x + rf @ h + bf)
        z = np.tanh(wz @ x + rz @ h + bz)
        o = np_sigmoid(wo @ x + ro @ h + bo)
        c = f * c + i * z
        n = f * n + i
        h = o * c / n
        out.append(h.copy())
    return np.asarray(out)


def random_cell(rng, d_in=4, d_hidden=6, heads=2, dtype=np.float64):
    with T.precision(dtype):
        return slstm.init_slstm_params(d_in, d_hidden, heads, rng)


def run_sequence(p: slstm.SLstmParams, xs, stats=None) -> np.ndarray:
    """The fused recurrence's forward over the tokens xs [L, D_in], batch 1,
    run by a block share that holds only the cell (no layer norm, conv or
    projection is read)."""
    x = R.lift(xs).data
    hs = np.empty((x.shape[0], p.d_hidden), dtype=np.result_type(x, p.w_z.data))
    pre, step = slstm.Scratch().carve(hs.dtype, [(4, x.shape[0], p.d_hidden), (9, 1, p.d_hidden)])
    share = slstm._BlockChunks(slstm.BlockWeights(p, None, None, None), 1, None, 1.0, None,
                               stats, [pre, None, hs], step, None, x.shape[0], 0)
    share.run(x, x, hs)
    return hs


def test_zero_weights_first_step_is_analytic():
    rng = np.random.default_rng(0)
    p = random_cell(rng)
    for name in ("w_z", "w_i", "w_f", "w_o", "r_z", "r_i", "r_f", "r_o",
                 "b_z", "b_i", "b_f", "b_o"):
        getattr(p, name).data[:] = 0.0
    state, gates = slstm_ref.cell_step(p, np.zeros(4), slstm_ref.zero_state(1, 6))
    assert np.array_equal(state.h.data, np.zeros((1, 6)))
    assert np.array_equal(state.c.data, np.zeros((1, 6)))
    assert np.array_equal(state.n.data, np.ones((1, 6)))
    assert np.array_equal(state.m.data, np.zeros((1, 6)))
    assert np.all(gates.i.data == 1.0)
    assert np.all(gates.f.data == 1.0)
    assert np.all(gates.o.data == 0.5)
    assert np.all(gates.z.data == 0.0)


def test_cell_step_shape_errors():
    rng = np.random.default_rng(1)
    p = random_cell(rng)
    with pytest.raises(ShapeError):
        slstm_ref.cell_step(p, np.zeros(5), slstm_ref.zero_state(1, 6))
    with pytest.raises(ShapeError):
        slstm_ref.cell_step(p, np.zeros(4), slstm_ref.zero_state(1, 7))


def test_nonfinite_preactivation_names_gate():
    rng = np.random.default_rng(2)
    p = random_cell(rng)
    p.b_i.data[0, 0] = np.inf
    with pytest.raises(FloatingPointError, match="input gate"):
        slstm_ref.cell_step(p, np.zeros(4), slstm_ref.zero_state(1, 6))


def test_gate_ranges():
    rng = np.random.default_rng(3)
    with T.precision(np.float64):
        p = random_cell(rng)
        state = slstm_ref.zero_state(1, 6, dtype=np.float64)
        for _ in range(5):
            x = rng.uniform(-2, 2, size=4)
            state, gates = slstm_ref.cell_step(p, x, state)
            assert np.all(gates.i.data > 0)
            assert np.all(gates.f.data > 0)
            assert np.all((gates.o.data > 0) & (gates.o.data < 1))
            assert np.all((gates.z.data >= -1) & (gates.z.data <= 1))
            assert np.all(state.n.data > 0)
            assert np.isfinite(state.h.data).all()


def test_stabilized_matches_unstabilized_oracle():
    rng = np.random.default_rng(42)
    with T.precision(np.float64):
        worst = 0.0
        for _ in range(25):
            p = random_cell(rng)
            length = int(rng.integers(1, 33))
            xs = rng.uniform(-1, 1, size=(length, 4))
            got = run_sequence(p, xs)
            ref = unstabilized_reference(p, xs)
            worst = max(worst, float(np.abs(got - ref).max()))
        assert worst < 1e-10


def test_forget_bias_overflow_divergence():
    rng = np.random.default_rng(7)
    with T.precision(np.float64):
        p = random_cell(rng, d_in=3, d_hidden=4, heads=1)
        p.b_f.data[:] = 10.0
        xs = rng.uniform(-1, 1, size=(512, 3))
        stabilized = run_sequence(p, xs)
        assert np.isfinite(stabilized).all()
        with np.errstate(over="ignore", invalid="ignore"):
            reference = unstabilized_reference(p, xs)
        assert not np.isfinite(reference).all()


def test_sequence_length_one_equals_cell_step():
    rng = np.random.default_rng(8)
    p = random_cell(rng)
    x = rng.uniform(-1, 1, size=(1, 4))
    seq = run_sequence(p, x)
    state, _ = slstm_ref.cell_step(p, x[0], slstm_ref.zero_state(1, 6))
    assert np.array_equal(seq, state.h.data)


def test_zero_weights_give_zero_hidden_sequence():
    rng = np.random.default_rng(9)
    p = random_cell(rng)
    for name in ("w_z", "w_i", "w_f", "w_o", "r_z", "r_i", "r_f", "r_o",
                 "b_z", "b_i", "b_f", "b_o"):
        getattr(p, name).data[:] = 0.0
    xs = rng.uniform(-1, 1, size=(6, 4))
    out = run_sequence(p, xs)
    assert np.array_equal(out, np.zeros((6, 6)))


def test_causality_prefix_outputs_bitwise_stable():
    rng = np.random.default_rng(10)
    p = random_cell(rng, dtype=np.float32)
    xs = rng.uniform(-1, 1, size=(12, 4)).astype(np.float32)
    base = run_sequence(p, xs)
    modified = xs.copy()
    modified[7:] = rng.uniform(-1, 1, size=(5, 4)).astype(np.float32)
    out = run_sequence(p, modified)
    assert np.array_equal(out[:7], base[:7])
    assert not np.array_equal(out[7:], base[7:])


def test_head_independence_of_recurrence():
    # With zero input weights, zeroing head j's hidden entries changes only
    # head j's recurrent pre-activation contributions at the next step.
    rng = np.random.default_rng(11)
    d_hidden, heads = 6, 3
    width = d_hidden // heads
    p = random_cell(rng, d_in=4, d_hidden=d_hidden, heads=heads)
    for name in ("w_z", "w_i", "w_f", "w_o"):
        getattr(p, name).data[:] = 0.0
    h_prev = rng.uniform(-1, 1, size=(1, d_hidden))
    x = np.zeros(4)

    def step_from(h):
        state = slstm_ref.zero_state(1, d_hidden, dtype=np.float64)
        state.h = Tensor(h, dtype=np.float64)
        new, gates = slstm_ref.cell_step(p, x, state)
        return gates.i_tilde.data[0]

    base = step_from(h_prev)
    j = 1
    zeroed = h_prev.copy()
    zeroed[0, j * width:(j + 1) * width] = 0.0
    changed = step_from(zeroed)
    diff = changed - base
    mask = np.zeros(d_hidden, dtype=bool)
    mask[j * width:(j + 1) * width] = True
    assert np.any(diff[mask] != 0.0)
    assert np.array_equal(diff[~mask], np.zeros(d_hidden - width))


def test_recurrent_weights_are_stored_per_head():
    p = random_cell(np.random.default_rng(12), d_in=4, d_hidden=6, heads=3)
    for name in ("r_z", "r_i", "r_f", "r_o"):
        assert getattr(p, name).shape == (3, 2, 2), name


def block_setup(rng, conv_width=0, dropout=0.0, d=6, heads=2):
    cfg = BlockConfig(d_hidden=d, num_heads=heads, conv_width=conv_width,
                      dropout_rate=dropout)
    with T.precision(np.float64):
        weights = slstm.init_block_weights(cfg, rng)
    return cfg, weights


def test_block_zero_projection_is_identity():
    rng = np.random.default_rng(14)
    with T.precision(np.float64):
        cfg, w = block_setup(rng)
        w.proj_w.data[:] = 0.0
        xs = rng.uniform(-1, 1, size=(5, 6))
        out = run_stack(cfg, [w], R.lift(xs), 1).data
        assert np.array_equal(out, xs)


def test_block_zero_conv_matches_disabled_conv():
    rng = np.random.default_rng(15)
    with T.precision(np.float64):
        cfg_on, w_on = block_setup(rng, conv_width=2)
        w_on.conv_kernel.data[:] = 0.0
        cfg_off = BlockConfig(d_hidden=6, num_heads=2, conv_width=0)
        w_off = slstm.BlockWeights(cell=w_on.cell, ln_gamma=w_on.ln_gamma,
                                   ln_beta=w_on.ln_beta, proj_w=w_on.proj_w)
        xs = rng.uniform(-1, 1, size=(5, 6))
        out_on = run_stack(cfg_on, [w_on], R.lift(xs), 1).data
        out_off = run_stack(cfg_off, [w_off], R.lift(xs), 1).data
        assert np.array_equal(out_on, out_off)


def test_block_eval_mode_is_deterministic():
    rng = np.random.default_rng(16)
    cfg, w = block_setup(rng, dropout=0.5)
    xs = np.random.default_rng(1).uniform(-1, 1, size=(4, 6))
    a = run_stack(cfg, [w], R.lift(xs), 1).data
    b = run_stack(cfg, [w], R.lift(xs), 1).data
    assert np.array_equal(a, b)


def test_block_dropout_active_only_in_training():
    rng = np.random.default_rng(17)
    cfg, w = block_setup(rng, dropout=0.5)
    xs = np.random.default_rng(2).uniform(-1, 1, size=(4, 6))
    r1 = run_stack(cfg, [w], R.lift(xs), 1, True, np.random.default_rng(0)).data
    r2 = run_stack(cfg, [w], R.lift(xs), 1, True, np.random.default_rng(5)).data
    assert not np.array_equal(r1, r2)


def test_block_width_mismatch_raises():
    rng = np.random.default_rng(18)
    cfg, w = block_setup(rng)
    with pytest.raises(ShapeError):
        run_stack(cfg, [w], R.lift(np.zeros((3, 5))), 1)


@pytest.mark.parametrize("record", [False, True], ids=["eval", "taped"])
def test_stack_leaves_its_input_rows_unwritten(record):
    # A block writes its output into an array of its own, never into the
    # rows it is given.
    rng = np.random.default_rng(19)
    cfg, w1 = block_setup(rng, conv_width=4)
    _, w2 = block_setup(rng, conv_width=4)
    xs = rng.uniform(-1, 1, size=(8, 6))
    before = xs.tobytes()
    x = Tensor(xs, dtype=np.float64)
    assert x.data is xs
    with Tape() if record else contextlib.nullcontext():
        out = run_stack(cfg, [w1, w2], x, 2)
    assert xs.tobytes() == before
    assert not np.shares_memory(out.data, xs)


def test_stack_zeroed_blocks_are_identity():
    rng = np.random.default_rng(20)
    cfg, w1 = block_setup(rng)
    _, w2 = block_setup(rng)
    w1.proj_w.data[:] = 0.0
    w2.proj_w.data[:] = 0.0
    xs = rng.uniform(-1, 1, size=(4, 6))
    out = run_stack(cfg, [w1, w2], R.lift(xs), 1).data
    assert np.array_equal(out, xs)


def test_two_block_stack_gradients_match_finite_differences():
    rng = np.random.default_rng(21)
    with T.precision(np.float64):
        cfg, w1 = block_setup(rng, d=4, heads=2)
        _, w2 = block_setup(rng, d=4, heads=2)
        xs = rng.uniform(-1, 1, size=(3, 4))
        target = rng.uniform(1.0, 2.0, size=(3, 4))
        leaves = [t for w in (w1, w2) for _, t, _ in w.named_parameters()]

        def f():
            out = run_stack(cfg, [w1, w2], R.lift(xs), 1)
            return R.reduce_mean(R.absval(R.sub(out, Tensor(target, dtype=np.float64))))

        errs = R.finite_difference_errors(f, leaves, 1e-5)
        flat = np.concatenate([e.reshape(-1) for e in errs])
    assert flat.max() < 1e-6
