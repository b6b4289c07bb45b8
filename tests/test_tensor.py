"""Engine tests: the ``custom_op`` contract, tapes, precision and the fd
oracle, and the semantics, broadcasting and backward rules of the reference
ops in ``engine_reference`` that the test oracles are built from."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixcast import gradcheck, tensor as T
from mixcast.gradcheck import GradcheckError
from mixcast.tensor import ShapeError, Tape, Tensor

import engine_reference as R


def fd_max_error(f, leaves, step: float = 1e-5) -> float:
    """Worst gradient error over all leaf entries."""
    return max(float(e.max()) for e in R.finite_difference_errors(f, leaves, step))


def test_matmul_identity():
    eye = Tensor([[1.0, 0.0], [0.0, 1.0]])
    v = Tensor([[3.0], [4.0]])
    assert np.array_equal(R.matmul(eye, v).data, [[3.0], [4.0]])


def test_matmul_inner_product():
    out = R.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.data.tolist() == [[11.0]]


def triple_loop_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n), dtype=a.dtype)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for l in range(k):
                acc += a[i, l] * b[l, j]
            out[i, j] = acc
    return out


def test_matmul_against_triple_loop_oracle():
    rng = np.random.default_rng(0)
    with T.precision(np.float64):
        for m, k, n in [(3, 4, 2), (16, 16, 16), (5, 1, 7)]:
            a = rng.uniform(-1, 1, size=(m, k))
            b = rng.uniform(-1, 1, size=(k, n))
            got = R.matmul(Tensor(a), Tensor(b)).data
            assert np.abs(got - triple_loop_matmul(a, b)).max() < 1e-12


def test_matmul_backward_rules():
    rng = np.random.default_rng(1)
    a = R.parameter(rng.normal(size=(3, 4)), dtype=np.float64)
    b = R.parameter(rng.normal(size=(4, 2)), dtype=np.float64)
    with Tape() as tape:
        loss = R.reduce_sum(R.matmul(a, b))
        tape.backward(loss)
    g = np.ones((3, 2))
    assert np.allclose(a.grad, g @ b.data.T)
    assert np.allclose(b.grad, a.data.T @ g)


def test_elementwise_point_values():
    assert R.tanh(Tensor([0.0])).data[0] == 0.0
    assert R.sigmoid(Tensor([0.0])).data[0] == 0.5
    assert R.max2(Tensor([2.0]), Tensor([5.0])).data[0] == 5.0


def test_max2_routes_gradient_to_larger_operand():
    a = R.parameter([2.0])
    b = R.parameter([5.0])
    with Tape() as tape:
        loss = R.reduce_sum(R.max2(a, b))
        tape.backward(loss)
    assert a.grad[0] == 0.0
    assert b.grad[0] == 1.0


def test_max2_tie_routes_gradient_to_first_operand():
    a = R.parameter([3.0])
    b = R.parameter([3.0])
    with Tape() as tape:
        loss = R.reduce_sum(R.max2(a, b))
        tape.backward(loss)
    assert a.grad[0] == 1.0
    assert b.grad[0] == 0.0


def test_broadcast_row_column_scalar():
    m = Tensor(np.arange(6.0).reshape(2, 3))
    row = Tensor([[10.0, 20.0, 30.0]])
    col = Tensor([[100.0], [200.0]])
    vec = Tensor([1.0, 2.0, 3.0])
    assert np.array_equal(R.add(m, row).data, m.data + row.data)
    assert np.array_equal(R.add(m, col).data, m.data + col.data)
    assert np.array_equal(R.add(m, vec).data, m.data + vec.data)
    assert np.array_equal(R.add(m, 2.0).data, m.data + 2.0)


def test_broadcast_backward_sums_over_expanded_axes():
    col = R.parameter(np.ones((2, 1)))
    m = Tensor(np.ones((2, 3)))
    with Tape() as tape:
        loss = R.reduce_sum(R.mul(m, col))
        tape.backward(loss)
    assert np.array_equal(col.grad, [[3.0], [3.0]])


def test_div_by_zero_propagates_inf_under_tape():
    with Tape():
        out = R.div(Tensor([1.0]), Tensor([0.0]))
        assert np.isinf(out.data[0])


def test_reduce_examples():
    assert R.reduce_mean(Tensor([1.0, 2.0, 3.0])).item() == 2.0
    # population variance of [1,2,3]: ((1-2)^2 + 0 + (3-2)^2) / 3 = 2/3
    with T.precision(np.float64):
        var = R.reduce_var(Tensor([1.0, 2.0, 3.0]))
        assert abs(var.item() - 2.0 / 3.0) < 1e-15


def test_sum_of_zeros_has_zero_gradients():
    w = R.parameter(np.zeros(4))
    with Tape() as tape:
        loss = R.reduce_sum(w)
        tape.backward(loss)
    assert loss.item() == 0.0
    assert np.array_equal(w.grad, np.ones(4))  # d(sum)/dw is 1 regardless


def test_var_backward_matches_fd():
    rng = np.random.default_rng(2)
    with T.precision(np.float64):
        x = R.parameter(rng.normal(size=(3, 5)))
        err = fd_max_error(
            lambda: R.reduce_sum(R.reduce_var(x, axis=1)), [x], 1e-5)
    assert err < 1e-8


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 1))
@settings(max_examples=25, deadline=None)
def test_reverse_is_involutive(rows, cols, axis):
    rng = np.random.default_rng(rows * 7 + cols)
    x = Tensor(rng.normal(size=(rows, cols)))
    twice = R.reverse(R.reverse(x, axis), axis)
    assert np.array_equal(twice.data, x.data)


def test_transpose_is_involutive():
    x = Tensor(np.arange(12.0).reshape(3, 4))
    assert np.array_equal(R.transpose(R.transpose(x)).data, x.data)


def test_concat_and_slice_are_inverse():
    a = Tensor([1.0, 2.0])
    b = Tensor([3.0])
    cat = R.concat([a, b], axis=0)
    assert cat.data.tolist() == [1.0, 2.0, 3.0]
    back = R.slice_axis(cat, 0, 0, 2)
    assert np.array_equal(back.data, a.data)


def test_take_rows_gathers_and_scatters():
    x = R.parameter(np.arange(6.0).reshape(3, 2))
    with Tape() as tape:
        picked = R.take_rows(x, [2, 0, 2])
        loss = R.reduce_sum(picked)
        tape.backward(loss)
    assert np.array_equal(picked.data, [[4.0, 5.0], [0.0, 1.0], [4.0, 5.0]])
    assert np.array_equal(x.grad, [[1.0, 1.0], [0.0, 0.0], [2.0, 2.0]])


def test_restructure_backward_scatters_to_source():
    x = R.parameter(np.arange(8.0).reshape(2, 4), dtype=np.float64)
    with T.precision(np.float64):
        err = fd_max_error(
            lambda: R.reduce_sum(R.mul(R.reverse(R.slice_axis(x, 1, 1, 3), 1),
                                       Tensor([[2.0, 3.0]], dtype=np.float64))),
            [x], 1e-6)
    assert err < 1e-8


def test_backward_simple_examples():
    w = R.parameter([3.0])
    with Tape() as tape:
        loss = R.reduce_sum(R.mul(w, w))
        tape.backward(loss)
    assert np.allclose(w.grad, [6.0])

    x = R.parameter(np.arange(4.0))
    with Tape() as tape:
        loss = R.reduce_mean(x)
        tape.backward(loss)
    assert np.allclose(x.grad, [0.25] * 4)


def test_backward_twice_fails():
    w = R.parameter([1.0])
    with Tape() as tape:
        loss = R.reduce_sum(R.mul(w, w))
        tape.backward(loss)
        with pytest.raises(RuntimeError, match="already"):
            tape.backward(loss)


def test_backward_requires_scalar_from_this_tape():
    w = R.parameter([1.0, 2.0])
    with Tape() as tape:
        y = R.mul(w, 2.0)
        with pytest.raises(ShapeError):
            tape.backward(y)
    with Tape() as other:
        z = R.reduce_sum(R.mul(w, w))
    with Tape() as tape2:
        with pytest.raises(RuntimeError, match="tape"):
            tape2.backward(z)


def test_composed_graph_matches_finite_differences():
    rng = np.random.default_rng(3)
    with T.precision(np.float64):
        a = R.parameter(rng.uniform(-1, 1, size=(3, 4)))
        b = R.parameter(rng.uniform(-1, 1, size=(4, 3)))
        c = R.parameter(rng.uniform(0.5, 1.5, size=(3, 1)))

        def f():
            m = R.tanh(R.matmul(a, b))
            n = R.sigmoid(R.div(m, c))
            p = R.add(R.exp(R.mul(n, 0.3)), R.sqrt(c))
            return R.reduce_mean(R.mul(R.absval(R.sub(p, 0.7)), R.max2(m, n)))

        err = fd_max_error(f, [a, b, c], 1e-5)
    assert err < 1e-6


def test_fd_quadratic_and_constant():
    with T.precision(np.float64):
        w = R.parameter([3.0])
        err = fd_max_error(lambda: R.reduce_sum(R.mul(w, w)), [w], 1e-5)
        assert err < 1e-9

        k = R.parameter([2.0])
        errs = R.finite_difference_errors(lambda: R.reduce_sum(R.mul(k, 0.0)), [k], 1e-5)
        assert errs[0].max() == 0.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fd_reports_nonfinite_probe():
    with T.precision(np.float64):
        w = R.parameter([0.0])
        with pytest.raises(GradcheckError, match="leaf 0"):
            fd_max_error(lambda: R.reduce_sum(R.sqrt(w)), [w], 1e-5)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fd_reports_floating_point_error_in_probe():
    # An op that stops with FloatingPointError on a non-finite output, as
    # the stack's pre-activation check does: the probe still names the leaf
    # entry, and the entry keeps its value.
    def checked_sqrt(t):
        out = np.sqrt(t.data)
        if not np.isfinite(out).all():
            raise FloatingPointError("non-finite square root")
        return T.custom_op(out, [t], lambda g: [g * 0.5 / out])

    with T.precision(np.float64):
        w = R.parameter([0.5, 0.0])
        with pytest.raises(GradcheckError, match="leaf 0 entry 1") as info:
            R.finite_difference_errors(lambda: R.reduce_sum(checked_sqrt(w)), [w], 1e-5)
    assert isinstance(info.value.__cause__, FloatingPointError)
    assert w.data.tolist() == [0.5, 0.0]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_directional_check_reports_nonfinite_probe():
    with T.precision(np.float64):
        w = R.parameter([0.0, 1.0])
        with pytest.raises(GradcheckError, match="^non-finite loss along direction 0$"):
            gradcheck.finite_difference_directional(
                lambda: R.reduce_sum(R.sqrt(w)), [w], np.random.default_rng(0))
    assert w.data.tolist() == [0.0, 1.0]


@given(st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_broadcast_add_commutes_and_associates(seed):
    rng = np.random.default_rng(seed)
    with T.precision(np.float64):
        m = Tensor(rng.uniform(-1, 1, size=(3, 4)))
        row = Tensor(rng.uniform(-1, 1, size=(1, 4)))
        col = Tensor(rng.uniform(-1, 1, size=(3, 1)))
        ab = R.add(m, row).data
        ba = R.add(row, m).data
        assert np.abs(ab - ba).max() < 1e-12
        left = R.add(R.add(m, row), col).data
        right = R.add(m, R.add(row, col)).data
        assert np.abs(left - right).max() < 1e-12


# -- the custom_op contract ---------------------------------------------------------

def record(inputs, backward_fn, data=None):
    """One custom_op over inputs whose forward is the first input's data."""
    return T.custom_op(inputs[0].data.copy() if data is None else data, inputs, backward_fn)


def test_custom_op_none_gradient_skips_its_input():
    a, b = R.parameter([1.0, 2.0]), R.parameter([3.0, 4.0])
    with Tape() as tape:
        tape.backward(R.reduce_sum(record([a, b], lambda g: [2.0 * g, None])))
    assert np.array_equal(a.grad, [2.0, 2.0])
    assert b.grad is None


def test_custom_op_input_used_twice_sums_its_gradients():
    w = R.parameter([1.0, 2.0])
    with Tape() as tape:
        once = record([w, w], lambda g: [g, 3.0 * g])  # twice in one op
        tape.backward(R.reduce_sum(R.add(once, record([w], lambda g: [5.0 * g]))))
    assert np.array_equal(w.grad, [9.0, 9.0])


def test_custom_op_copies_a_gradient_that_is_a_view():
    w = R.parameter(np.zeros((2, 3)))
    seen = []

    def backward(g):
        seen.append(g)
        return [g.reshape(2, 3)]

    with Tape() as tape:
        out = record([w], backward, data=w.data.reshape(6).copy())
        tape.backward(R.reduce_sum(R.mul(out, np.arange(6.0, dtype=np.float32))))
    assert np.array_equal(w.grad, np.arange(6.0).reshape(2, 3))
    assert not np.shares_memory(w.grad, seen[0])


def test_one_array_returned_for_two_inputs_is_not_shared():
    # add's backward returns the same array for both operands; the earlier
    # op on a then adds into a.grad, which must not be b.grad.
    a, b = R.parameter([1.0, 2.0]), R.parameter([3.0, 4.0])
    with Tape() as tape:
        twice = R.mul(a, 2.0)
        tape.backward(R.reduce_sum(R.add(R.add(a, b), twice)))
    assert np.array_equal(a.grad, [3.0, 3.0])
    assert np.array_equal(b.grad, [1.0, 1.0])
    assert not np.shares_memory(a.grad, b.grad)


def test_a_preset_gradient_is_added_to_in_place():
    buffer = np.full(8, 0.5, np.float32)
    w = R.parameter(np.zeros((2, 3)))
    view = buffer[1:7].reshape(2, 3)
    w.grad = view
    with Tape() as tape:
        tape.backward(R.reduce_sum(R.mul(w, np.arange(6.0, dtype=np.float32).reshape(2, 3))))
    assert w.grad is view
    assert buffer.tolist() == [0.5, 0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 0.5]


def test_a_gradient_of_another_shape_is_rejected():
    w = R.parameter(np.zeros((1, 4)))
    w.grad = np.zeros((1, 4), np.float32)
    with Tape() as tape:
        out = record([w], lambda g: [np.ones(4, np.float32)], data=np.zeros(4, np.float32))
        with pytest.raises(ShapeError, match=r"^gradient has shape \(4,\), "
                                             r"the tensor's gradient \(1, 4\)$"):
            tape.backward(R.reduce_sum(out))
    assert not w.grad.any()


def test_a_gradient_of_another_dtype_is_rejected():
    w = R.parameter(np.zeros(3))
    w.grad = np.zeros(3, np.float32)
    with Tape() as tape:
        out = record([w], lambda g: [np.ones(3, np.float64)])
        with pytest.raises(ValueError, match="^gradient is float64, "
                                             "the tensor's gradient float32$"):
            tape.backward(R.reduce_sum(out))
    assert not w.grad.any()


def test_no_recording_without_tape():
    a = Tensor([1.0])
    assert not T.will_record()
    out = record([a], lambda g: [g])
    assert out._tape is None and a.grad is None


def test_a_tape_records_every_op_run_under_it():
    # Recording is one fact, an active tape: every op run under it records,
    # and every tensor an op read gets a gradient, whatever built it.
    a, b = Tensor([1.0]), Tensor([2.0])
    with Tape() as tape:
        assert T.will_record()
        first = record([a], lambda g: [g])
        assert first._tape is tape and len(tape) == 1
        tape.backward(R.reduce_sum(R.mul(first, b)))
    assert not T.will_record()
    assert (a.grad.tolist(), b.grad.tolist()) == ([2.0], [1.0])


def test_a_positional_second_argument_is_rejected():
    # dtype is keyword-only, so a leftover Tensor(data, flag) fails loudly.
    with pytest.raises(TypeError):
        Tensor([1.0], True)


def test_nested_tape_raises_and_the_outer_tape_keeps_recording():
    w = R.parameter([2.0])
    with Tape() as tape:
        square = R.mul(w, w)
        with pytest.raises(RuntimeError, match="already recording"):
            with Tape():
                pass
        assert T.will_record()
        loss = R.reduce_sum(R.mul(square, w))
        assert len(tape) == 3
        tape.backward(loss)
    assert w.grad.tolist() == [12.0]  # d(w^3)/dw = 3 w^2
    assert not T.will_record()
    with Tape() as again:
        R.mul(w, w)
    assert len(again) == 1


def test_dtype_policy():
    x = Tensor([1.0])
    assert x.data.dtype == np.float32
    with T.precision(np.float64):
        y = Tensor([1.0])
        assert y.data.dtype == np.float64
    assert Tensor([1.0]).data.dtype == np.float32


def test_scalar_lifted_in_the_operand_dtype():
    # Outside precision(float64) the default dtype is float32; a scalar lifted
    # next to a float64 tensor must still carry the exact float64 value.
    like = Tensor([1.0], dtype=np.float64)
    eps = R.lift(1e-5, like=like)
    assert eps.data.dtype == np.float64
    assert eps.data.item() == 1e-5
    assert R.add(like, 1e-5).data.item() == 1.0 + 1e-5


def test_precision_is_per_thread():
    barrier = threading.Barrier(2, timeout=10)
    seen = {}

    def run(dtype):
        with T.precision(dtype):
            barrier.wait()   # both threads are inside precision() at once
            first = Tensor([1.0]).data.dtype
            barrier.wait()
            seen[dtype] = (first, R.lift([2.0]).data.dtype, T.default_dtype())

    threads = [threading.Thread(target=run, args=(dtype,))
               for dtype in (np.float64, np.float32)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    assert seen == {np.float64: (np.float64, np.float64, np.float64),
                    np.float32: (np.float32, np.float32, np.float32)}
    assert T.default_dtype() == np.float32
