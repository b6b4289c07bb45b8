"""Engine tests: op semantics, broadcasting, backward rules, fd oracle."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixcast import tensor as T
from mixcast.tensor import ShapeError, Tape, Tensor


def test_matmul_identity():
    eye = Tensor([[1.0, 0.0], [0.0, 1.0]])
    v = Tensor([[3.0], [4.0]])
    assert np.array_equal(T.matmul(eye, v).data, [[3.0], [4.0]])


def test_matmul_inner_product():
    out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
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
            got = T.matmul(Tensor(a), Tensor(b)).data
            assert np.abs(got - triple_loop_matmul(a, b)).max() < 1e-12


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


def test_matmul_backward_rules():
    rng = np.random.default_rng(1)
    a = T.parameter(rng.normal(size=(3, 4)), dtype=np.float64)
    b = T.parameter(rng.normal(size=(4, 2)), dtype=np.float64)
    with Tape() as tape:
        loss = T.matmul(a, b).sum()
        tape.backward(loss)
    g = np.ones((3, 2))
    assert np.allclose(a.grad, g @ b.data.T)
    assert np.allclose(b.grad, a.data.T @ g)


def test_elementwise_point_values():
    assert T.tanh(Tensor([0.0])).data[0] == 0.0
    assert T.sigmoid(Tensor([0.0])).data[0] == 0.5
    assert T.max2(Tensor([2.0]), Tensor([5.0])).data[0] == 5.0


def test_max2_routes_gradient_to_larger_operand():
    a = T.parameter([2.0])
    b = T.parameter([5.0])
    with Tape() as tape:
        loss = T.max2(a, b).sum()
        tape.backward(loss)
    assert a.grad[0] == 0.0
    assert b.grad[0] == 1.0


def test_max2_tie_routes_gradient_to_first_operand():
    a = T.parameter([3.0])
    b = T.parameter([3.0])
    with Tape() as tape:
        loss = T.max2(a, b).sum()
        tape.backward(loss)
    assert a.grad[0] == 1.0
    assert b.grad[0] == 0.0


def test_broadcast_row_column_scalar():
    m = Tensor(np.arange(6.0).reshape(2, 3))
    row = Tensor([[10.0, 20.0, 30.0]])
    col = Tensor([[100.0], [200.0]])
    vec = Tensor([1.0, 2.0, 3.0])
    assert np.array_equal((m + row).data, m.data + row.data)
    assert np.array_equal((m + col).data, m.data + col.data)
    assert np.array_equal((m + vec).data, m.data + vec.data)
    assert np.array_equal((m + 2.0).data, m.data + 2.0)


def test_broadcast_backward_sums_over_expanded_axes():
    col = T.parameter(np.ones((2, 1)))
    m = Tensor(np.ones((2, 3)))
    with Tape() as tape:
        loss = (m * col).sum()
        tape.backward(loss)
    assert np.array_equal(col.grad, [[3.0], [3.0]])


def test_incompatible_shapes_raise():
    with pytest.raises(ShapeError):
        T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))


def test_div_by_zero_propagates_inf_under_tape():
    with Tape():
        out = T.div(Tensor([1.0]), Tensor([0.0]))
        assert np.isinf(out.data[0])


def test_reduce_examples():
    assert T.reduce_mean(Tensor([1.0, 2.0, 3.0])).item() == 2.0
    # population variance of [1,2,3]: ((1-2)^2 + 0 + (3-2)^2) / 3 = 2/3
    with T.precision(np.float64):
        var = T.reduce_var(Tensor([1.0, 2.0, 3.0]))
        assert abs(var.item() - 2.0 / 3.0) < 1e-15


def test_sum_of_zeros_has_zero_gradients():
    w = T.parameter(np.zeros(4))
    with Tape() as tape:
        loss = w.sum()
        tape.backward(loss)
    assert loss.item() == 0.0
    assert np.array_equal(w.grad, np.ones(4))  # d(sum)/dw is 1 regardless


def test_var_backward_matches_fd():
    rng = np.random.default_rng(2)
    with T.precision(np.float64):
        x = T.parameter(rng.normal(size=(3, 5)))
        err = T.finite_difference_check(
            lambda: T.reduce_var(x, axis=1).sum(), [x], 1e-5)
    assert err < 1e-8


def test_reduce_axis_out_of_range():
    with pytest.raises(ShapeError):
        T.reduce_sum(Tensor(np.zeros((2, 2))), axis=2)


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 1))
@settings(max_examples=25, deadline=None)
def test_reverse_is_involutive(rows, cols, axis):
    rng = np.random.default_rng(rows * 7 + cols)
    x = Tensor(rng.normal(size=(rows, cols)))
    twice = T.reverse(T.reverse(x, axis), axis)
    assert np.array_equal(twice.data, x.data)


def test_transpose_is_involutive():
    x = Tensor(np.arange(12.0).reshape(3, 4))
    assert np.array_equal(T.transpose(T.transpose(x)).data, x.data)


def test_concat_and_slice_are_inverse():
    a = Tensor([1.0, 2.0])
    b = Tensor([3.0])
    cat = T.concat([a, b], axis=0)
    assert cat.data.tolist() == [1.0, 2.0, 3.0]
    back = T.slice_axis(cat, 0, 0, 2)
    assert np.array_equal(back.data, a.data)


def test_slice_out_of_bounds():
    with pytest.raises(ShapeError):
        T.slice_axis(Tensor(np.zeros((2, 2))), 0, 1, 3)


def test_take_rows_gathers_and_scatters():
    x = T.parameter(np.arange(6.0).reshape(3, 2))
    with Tape() as tape:
        picked = T.take_rows(x, [2, 0, 2])
        loss = picked.sum()
        tape.backward(loss)
    assert np.array_equal(picked.data, [[4.0, 5.0], [0.0, 1.0], [4.0, 5.0]])
    assert np.array_equal(x.grad, [[1.0, 1.0], [0.0, 0.0], [2.0, 2.0]])


def test_restructure_backward_scatters_to_source():
    x = T.parameter(np.arange(8.0).reshape(2, 4), dtype=np.float64)
    with T.precision(np.float64):
        err = T.finite_difference_check(
            lambda: (T.reverse(T.slice_axis(x, 1, 1, 3), 1) * Tensor([[2.0, 3.0]], dtype=np.float64)).sum(),
            [x], 1e-6)
    assert err < 1e-8


def test_backward_simple_examples():
    w = T.parameter([3.0])
    with Tape() as tape:
        loss = (w * w).sum()
        tape.backward(loss)
    assert np.allclose(w.grad, [6.0])

    x = T.parameter(np.arange(4.0))
    with Tape() as tape:
        loss = x.mean()
        tape.backward(loss)
    assert np.allclose(x.grad, [0.25] * 4)


def test_backward_twice_fails():
    w = T.parameter([1.0])
    with Tape() as tape:
        loss = (w * w).sum()
        tape.backward(loss)
        with pytest.raises(RuntimeError, match="already"):
            tape.backward(loss)


def test_backward_requires_scalar_from_this_tape():
    w = T.parameter([1.0, 2.0])
    with Tape() as tape:
        y = w * 2.0
        with pytest.raises(ShapeError):
            tape.backward(y)
    with Tape() as other:
        z = (w * w).sum()
    with Tape() as tape2:
        with pytest.raises(RuntimeError, match="tape"):
            tape2.backward(z)


def test_composed_graph_matches_finite_differences():
    rng = np.random.default_rng(3)
    with T.precision(np.float64):
        a = T.parameter(rng.uniform(-1, 1, size=(3, 4)))
        b = T.parameter(rng.uniform(-1, 1, size=(4, 3)))
        c = T.parameter(rng.uniform(0.5, 1.5, size=(3, 1)))

        def f():
            m = T.tanh(T.matmul(a, b))
            n = T.sigmoid(m / c)
            p = T.exp(n * 0.3) + T.sqrt(c)
            return (T.absval(p - 0.7) * T.max2(m, n)).mean()

        err = T.finite_difference_check(f, [a, b, c], 1e-5)
    assert err < 1e-6


def test_fd_quadratic_and_constant():
    with T.precision(np.float64):
        w = T.parameter([3.0])
        err = T.finite_difference_check(lambda: (w * w).sum(), [w], 1e-5)
        assert err < 1e-9

        k = T.parameter([2.0])
        errs = T.finite_difference_errors(lambda: (k * 0.0).sum(), [k], 1e-5)
        assert errs[0].max() == 0.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fd_reports_nonfinite_probe():
    with T.precision(np.float64):
        w = T.parameter([0.0])
        with pytest.raises(T.GradcheckError, match="leaf 0"):
            T.finite_difference_check(lambda: T.sqrt(w).sum(), [w], 1e-5)


@given(st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_broadcast_add_commutes_and_associates(seed):
    rng = np.random.default_rng(seed)
    with T.precision(np.float64):
        m = Tensor(rng.uniform(-1, 1, size=(3, 4)))
        row = Tensor(rng.uniform(-1, 1, size=(1, 4)))
        col = Tensor(rng.uniform(-1, 1, size=(3, 1)))
        ab = (m + row).data
        ba = (row + m).data
        assert np.abs(ab - ba).max() < 1e-12
        left = ((m + row) + col).data
        right = (m + (row + col)).data
        assert np.abs(left - right).max() < 1e-12


def test_no_recording_without_tape():
    w = T.parameter([1.0])
    out = w * 3.0
    assert out._tape is None
    assert out.requires_grad  # propagates, but nothing was recorded


@pytest.mark.filterwarnings("ignore:overflow")
def test_debug_checks_flag_nonfinite_forward(monkeypatch):
    monkeypatch.setattr(T, "DEBUG_CHECKS", True)
    with pytest.raises(FloatingPointError):
        T.exp(Tensor([1000.0]))  # finite input, float32 overflow
    with pytest.raises(FloatingPointError):
        T.mul(Tensor([1e30]), Tensor([1e30]))


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
    eps = T.as_tensor(1e-5, like=like)
    assert eps.data.dtype == np.float64
    assert eps.data.item() == 1e-5
    assert (like + 1e-5).data.item() == 1.0 + 1e-5


def test_precision_is_per_thread():
    barrier = threading.Barrier(2, timeout=10)
    seen = {}

    def run(dtype):
        with T.precision(dtype):
            barrier.wait()   # both threads are inside precision() at once
            first = Tensor([1.0]).data.dtype
            barrier.wait()
            seen[dtype] = (first, T.as_tensor([2.0]).data.dtype, T.default_dtype())

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
